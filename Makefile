# The job list is written here and only here: every CI job
# (.github/workflows/ci.yml) is one `make <target>` call, so a green
# `make ci` locally means a green pipeline, and package lists,
# allocation budgets and analyzer names cannot drift between the two.

GO ?= go

# platform covers the event pipeline and every materialized view
# (events.go, trendindex, voteindex, pageindex); rankheap covers both
# the bounded TopK and the non-monotone Exact structure; eventlog and
# replica cover the durability/replication layer (WAL group commit,
# streaming apply, snapshot bootstrap); faultinject/httpguard/chaos
# cover the fault seams and the degradation machinery they exercise;
# gateway covers the fleet front door (probing, failover, breakers);
# deployment covers the one simulator mux every crawl shares (its route
# test drives all five simulators through one server).
RACE_PKGS = ./internal/platform/... ./internal/respcache/... \
            ./internal/rankheap/... \
            ./internal/eventlog/... ./internal/replica/... \
            ./internal/faultinject/... ./internal/httpguard/... \
            ./internal/gateway/... ./internal/chaos/... \
            ./internal/gabapi/... ./internal/dissenterweb/... \
            ./internal/crawlkit/... ./internal/dissentercrawl/... \
            ./internal/youtube/... ./internal/deployment/...

# Allocation budgets. The three miss budgets count the objects of one
# cache-miss serve of a write-maintained page — trends, leaderboard, a
# discussion page from the fragment view — on the path production runs:
# cache on, every entry expired by the next request (TTL 1 ns), so an
# op renders, composes (gzip included) and refills. Measured 19-20,
# 19-20 and 18-20, constant in store size (1k vs 100k URLs) and in
# comments per page (100 vs 10k). Until PR 17 these ran with the cache
# off and read 14, 14 and 5: the difference is the composer's own
# objects (the Composed, its body and gzip buffers, its header values),
# which that mode never executed — a measurement correction, not a
# regression, and 64 still holds with 3x headroom. The HIT budget is
# exact: a cache hit serves composed bytes and must allocate NOTHING —
# the benchmark rounds its MemStats delta to the nearest integer, so
# there is no noise to leave headroom for.
#
# FILL_BYTES_BUDGET counts BYTES per fill — a discussion miss with the
# keys rotating past the cache's capacity, as crawl_scan runs it
# (measured 2,532-2,553; 1.2 MB when a compressor was constructed per
# fill, which is 28 objects and passes any object budget). These pages
# are under respcache's fixedMax, so no fill here constructs a
# flate.Writer at all: what the pool builds when a collection empties it
# is a 16 kB hash table, 18 bytes a fill over the measured 1000.
#
# PATCH_BYTES_BUDGET counts BYTES per appended generation of a viral
# page — internal/respcache's BenchmarkComposeSegmentsAppend/extend, one
# row appended to 0.5 MB of comments, as herd_mixed patches its page. A
# quarter of the page: measured 99 kB (the 96 kB gzip member in its
# size class and its header values), 680 kB when every generation also
# joined a copy of the page's HTML.
#
# SNAPSHOT_ALLOCS_BUDGET is the one that runs the snapshot encoder:
# objects allocated by one eventlog.WriteSnapshot of the 1/64-scale
# corpus (62k entities). Measured 11 — the output buffer, the follow
# index's sorted keys, the entity scratch buffer's few doublings —
# and independent of the entity count; the materialising encoder it
# replaced allocated 62,509 (one copy per entity, plus a 40 MB result
# grown by doubling).
#
# RESIDENT_BYTES_BUDGET counts BYTES kept per posted comment — the root
# BenchmarkResidentPerComment: 20k comments posted to a durable 1/64
# primary with a tailing replica, every posted-to page then read once on
# each node, HeapInuse growth over a forced collection per comment.
# Measured 1,876-1,894 (mostly the posted-to pages' escaped streams and
# gzip members, then the comment records, on both nodes); the budget is
# that plus 25%. `make bench`, which runs it after the root package's
# other benchmarks in one process, reads about 2,200.
TRENDS_ALLOC_BUDGET = 64
LEADER_ALLOC_BUDGET = 64
DISC_ALLOC_BUDGET = 64
HIT_ALLOC_BUDGET = 0
FILL_BYTES_BUDGET = 8192
PATCH_BYTES_BUDGET = 131072
SNAPSHOT_ALLOCS_BUDGET = 16
RESIDENT_BYTES_BUDGET = 2360

.PHONY: build test race chaos crash-recovery bench bench-budget ledger-smoke lint fuzz-smoke fmt loc loc-budget ci ab

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The scripted fault-injection suite: deterministic schedules, each
# asserting no event loss, byte-identical convergence, and zero failed
# reads while any backend is healthy (internal/chaos/doc.go lists
# them). Also part of `race`.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# The out-of-process crash-recovery proofs on their own (they also run
# as part of `test`): kill -9 a replica child process mid-stream,
# restart it over the same directory, byte-compare every page vs the
# primary; and kill -9 a primary whose WAL holds many times RotateEvery
# records past its snapshot (where the geometric rotation rule keeps
# it), restore the directory, byte-compare the store.
crash-recovery:
	$(GO) test -count=1 -v -run TestReplicaCrashRecovery ./internal/replica/
	$(GO) test -count=1 -v -run TestPrimaryCrashRecovery ./internal/eventlog/

# Smoke-run every benchmark once so bench code can never rot (about
# 15 s): the root package's budgets, gateway probe and paper ablations,
# and the package-level ones. `bash bench/run.sh` (BENCHMARK.json) is
# where latency and throughput are measured and gated.
bench:
	$(GO) test -run 'ProbablyNoSuchTest' -bench=. -benchtime=1x ./...

# Budget assertions on the hot read paths: a cache-miss trends,
# leaderboard or discussion serve must stay under its allocation budget
# regardless of store and page size (all three read write-maintained
# views), a hit must allocate nothing (gzip, identity parts or 304), a
# cached fill and an appended generation of a large page must each stay
# under their bytes budget, a snapshot must allocate O(1) objects
# however many entities it encodes, and a posted comment must keep no
# more than its resident bytes.
bench-budget:
	BENCH_TRENDS_MAX_ALLOCS=$(TRENDS_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkTrendsRenderMiss -benchtime=200x .
	BENCH_LEADER_MAX_ALLOCS=$(LEADER_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkLeaderboardRenderMiss -benchtime=200x .
	BENCH_DISC_MAX_ALLOCS=$(DISC_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkDiscussionRenderMiss -benchtime=200x .
	BENCH_HIT_MAX_ALLOCS=$(HIT_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkDiscussionHit$$|BenchmarkDiscussionHit304$$' -benchtime=200x .
	BENCH_FILL_MAX_BYTES=$(FILL_BYTES_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkDiscussionFillMiss$$' -benchtime=1000x .
	BENCH_PATCH_MAX_BYTES=$(PATCH_BYTES_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkComposeSegmentsAppend$$/extend$$' -benchtime=200x ./internal/respcache/
	BENCH_SNAPSHOT_MAX_ALLOCS=$(SNAPSHOT_ALLOCS_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkWriteSnapshot$$' -benchtime=3x ./internal/eventlog/
	BENCH_RESIDENT_MAX_BYTES=$(RESIDENT_BYTES_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkResidentPerComment$$' -benchtime=1x .

# The A/B protocol every perf claim is judged by, as one command: clean
# archives of PARENT and HEAD, PAIRS alternated pairs of
# `bench/run.sh --workload WORKLOAD --seconds 20 --trace 0` from seed
# SEED0, the per-pair table, both sides' quartiles, the pairs won and a
# verdict per end-to-end metric (scripts/ab.sh). PARENT=HEAD is the A/A
# run that measures the box.
PAIRS ?= 10
SEED0 ?= 1

ab:
	sh scripts/ab.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED0)"

# bench/ (the BENCHMARK.json harness) is its own module, so the root
# `go test ./...` never compiles it: vet and test it here, so a
# serving-API change that breaks the frozen benchmark fails CI.
ledger-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# The project's own analyzer suite (internal/lint: viewpurity,
# cachecoherence, lockscope) runs through the go vet -vettool
# protocol. The tool is built once into bin/ and the
# go command caches per-package vet results against its hash, so
# repeat runs only re-analyze changed packages.
VETTOOL = $(CURDIR)/bin/dissenter-vet

lint:
	$(GO) build -o $(VETTOOL) ./cmd/dissenter-vet
	$(GO) vet -vettool=$(VETTOOL) ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Actually execute the fuzzers for a few seconds each (the plain test
# run only replays the seed corpus): the codec's round trip, the
# snapshot decoder whole and one byte per read, the WAL opener's
# torn-tail truncation over arbitrary appended bytes, and respcache's
# fixed-Huffman deflate kernel against the standard library's
# inflater. Ten seconds is a smoke pass, not a campaign; run longer
# locally when touching any of them.
fuzz-smoke:
	$(GO) test -run '^FuzzRoundTrip$$' -fuzz '^FuzzRoundTrip$$' -fuzztime=10s ./internal/eventlog/
	$(GO) test -run '^FuzzSnapshotDecode$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime=10s ./internal/eventlog/
	$(GO) test -run '^FuzzWALOpen$$' -fuzz '^FuzzWALOpen$$' -fuzztime=10s ./internal/eventlog/
	$(GO) test -run '^FuzzFixedDeflate$$' -fuzz '^FuzzFixedDeflate$$' -fuzztime=10s ./internal/respcache/

fmt:
	gofmt -w .

# Design weight, tracked like latency: non-test Go lines per package
# directory, then the total. Test files, analyzer fixtures (testdata)
# and the bench/ harness are not design weight; .bench_build is the
# benchmark's module cache.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
		-not -path '*/testdata/*' -not -path './.bench_build/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; \
		      close("sort -k2"); printf "%7d total\n", t }'

# Design weight is budgeted like allocations: loc-budget fails when
# `make loc`'s total exceeds this. A PR that needs more raises the
# constant in its own diff, where a reviewer sees it.
LOC_BUDGET = 21609

loc-budget:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_BUDGET) ]; then \
		echo "non-test Go lines: $$total exceeds LOC_BUDGET $(LOC_BUDGET)" >&2; exit 1; \
	fi; \
	echo "non-test Go lines: $$total (budget $(LOC_BUDGET))"

ci: build lint loc-budget test race chaos crash-recovery fuzz-smoke bench bench-budget ledger-smoke
