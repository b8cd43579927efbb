// Command bench is the repository's latency ledger: it builds the real
// primary + replica + gateway topology in one process over loopback
// sockets, drives one of four paper-shaped workloads at it from a
// closed loop of nproc keep-alive clients, checks every response, and
// prints every metric by name and unit. See README.md.
//
//	bash bench/run.sh --workload viral_read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload viral_read --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh                      # every workload, both ways, as a table
//	bash bench/run.sh --compare old.json new.json
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics of
// BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// report is the benchmark's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outDir holds everything a run writes: WAL directories while it runs,
// traces and the ledger after. It is relative to the benchmark's own
// directory, where run.sh starts the program.
const outDir = "out"

func main() {
	name := flag.String("workload", "", "workload to run (default: all of them, traced and untraced, as a table)")
	seed := flag.Int64("seed", 1, "seed of the op lists")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics in place of end-to-end ones")
	runs := flag.Int("runs", 1, "without --workload: how many times to run everything, on successive seeds")
	compare := flag.Bool("compare", false, "compare two ledgers: --compare old.json new.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareLedgers(flag.Args(), os.Stdout)
	case *name == "":
		err = runAll(*seed, *seconds, *runs)
	default:
		err = runWorkload(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload once and prints its report.
func runWorkload(name string, seed int64, seconds int, traced bool) error {
	ws, err := loadWorkloads()
	if err != nil {
		return err
	}
	w := findWorkload(ws, name)
	if w == nil {
		return fmt.Errorf("no workload %q in workloads.json", name)
	}
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	run := &runner{w: w, size: fullSize, seed: seed, window: time.Duration(seconds) * time.Second, dir: dir}
	var rep report
	if traced {
		rep, err = run.traced()
	} else {
		rep, err = run.untraced()
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runner holds what one run of one workload needs.
type runner struct {
	w      *workload
	size   sizing
	seed   int64
	window time.Duration
	dir    string
	plan   *plan
}

// fleetBuilds is how many times the fleet is built for setup_s; the
// median build is reported, which one slow fsync cannot move. The first
// builds are torn down at once; the last is the fleet the run uses.
const fleetBuilds = 3

// setUp brings up a warmed fleet and returns how long the program's own
// share of that took: the median of builds fleet builds (corpus
// generation, fleet start, the replica's bootstrap to byte-identical
// state) plus the warm-up of the one that is kept. Drawing the op
// lists, the benchmark's own work, is left out.
func (r *runner) setUp(builds int, rec *recorder) (*fleet, []*client, time.Duration, error) {
	var f *fleet
	var took []time.Duration
	for i := 0; i < builds; i++ {
		if f != nil {
			f.close()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if f, err = buildFleet(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", i)), r.size, rec); err != nil {
			return nil, nil, 0, err
		}
		took = append(took, time.Since(start))
	}
	slices.Sort(took)
	clients := runtime.GOMAXPROCS(0)
	var err error
	if r.plan, err = makePlan(r.w, surveyCorpus(f.db), r.size, r.seed, clients); err != nil {
		f.close()
		return nil, nil, 0, err
	}
	host := f.gatewayHost
	if r.w.Via == "primary" {
		host = f.primaryHost
	}
	cs := newClients(r.plan, host, clients)
	start := time.Now()
	warm := warmUp(cs)
	warming := time.Since(start)
	if warm.failed > 0 {
		closeClients(cs)
		f.close()
		return nil, nil, 0, fmt.Errorf("warm-up: %d of %d operations failed: %s", warm.failed, warm.attempted, strings.Join(warm.failures, "; "))
	}
	return f, cs, took[len(took)/2] + warming, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's resident-set high-water mark in bytes.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// finish runs the after-run checks and folds them into the report.
func finish(f *fleet, cs []*client, seen tally, wrote bool) report {
	var v verdict
	verifyGzip(cs, &v)
	if wrote {
		verifyWrites(f, cs, &v)
	}
	for _, msg := range append(seen.failures, v.failures...) {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
	failed := seen.failed + v.failed
	return report{Correct: failed == 0, Attempted: seen.attempted + v.checked, Failed: failed, Metrics: metrics{}}
}

func (r *runner) writes() bool {
	for _, s := range r.w.Ops {
		if opKinds[s.Op].isWrite() {
			return true
		}
	}
	return false
}

// untraced measures the end-to-end metrics: nothing of the benchmark's
// sits between the client and the program.
func (r *runner) untraced() (report, error) {
	began := time.Now()
	f, cs, setup, err := r.setUp(fleetBuilds, nil)
	if err != nil {
		return report{}, err
	}
	defer f.close()
	defer closeClients(cs)
	settingUp := time.Since(began)

	cpu := cpuTime()
	seen, wall := closedLoop(cs, r.window, nil)
	cpu = cpuTime() - cpu

	began = time.Now()
	rep := finish(f, cs, seen, r.writes())
	fmt.Fprintf(os.Stderr, "bench: %s: %.1fs setting up, %.1fs measuring, %.1fs checking\n",
		r.w.Name, settingUp.Seconds(), wall.Seconds(), time.Since(began).Seconds())
	done := float64(len(seen.done))
	if done == 0 {
		return rep, fmt.Errorf("no operation completed")
	}
	ns := seen.latencies(anyOp)
	rss, err := peakRSS()
	if err != nil {
		return rep, err
	}
	m := rep.Metrics
	m.set("setup_s", "s", setup.Seconds())
	m.set("throughput_rps", "1/s", done/wall.Seconds())
	m.set("op_p50_us", "us", us(percentile(ns, 0.5)))
	m.set("op_p95_us", "us", us(percentile(ns, 0.95)))
	m.set("cpu_us_per_op", "us", float64(cpu.Microseconds())/done)
	m.set("peak_rss_mb", "MB", rss/(1<<20))
	return rep, nil
}

// runtimeCounters are the process-wide readings a traced phase is
// bracketed with.
type runtimeCounters struct {
	mem runtime.MemStats
	// gcCPU and busyCPU are CPU-seconds the collector and the whole
	// process used, not counting marking done on otherwise idle
	// processors.
	gcCPU, busyCPU float64
}

func readRuntime() runtimeCounters {
	var c runtimeCounters
	runtime.ReadMemStats(&c.mem)
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	gc, gcIdle, total, idle := s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Float64()
	c.gcCPU, c.busyCPU = gc-gcIdle, total-idle-gcIdle
	return c
}

// The traced run splits the window: the traced closed loop between two
// halves of an unstamped one (the base the tracing overhead is
// measured against; a half on each side so that a store growing through
// the run slows base and traced alike), an open-loop pass, and the
// layer probes.
const (
	shareBase   = 0.20
	shareTraced = 0.30
	shareOpen   = 0.15
	shareProbes = 0.35
	// probeLoops is how many timed loops the probe share is split over.
	probeLoops = 24
	// spansPerSecond sizes the span buffer: six spans a request at
	// four times the fastest workload's rate.
	spansPerSecond = 250_000
)

// traced measures the per-layer metrics.
func (r *runner) traced() (report, error) {
	share := func(s float64) time.Duration { return time.Duration(s * float64(r.window)) }
	rec := newRecorder(int(share(shareTraced).Seconds()*spansPerSecond) + 1)
	f, cs, _, err := r.setUp(1, rec)
	if err != nil {
		return report{}, err
	}
	closed := false
	defer func() {
		closeClients(cs)
		if !closed {
			f.close()
		}
	}()

	base, baseWall := closedLoop(cs, share(shareBase)/2, nil)

	// The traced phase, bracketed by every counter a layer keeps.
	hits0, misses0 := f.cacheStats()
	gw0 := f.gw.Stats()
	fs0 := f.fs.snapshot()
	seq0 := f.db.EventSeq()
	rt0 := readRuntime()
	stop := make(chan struct{})
	sampled := make(chan []cursorSample)
	go func() {
		sampled <- sampleCursors(rec, func() cursorSample {
			return cursorSample{head: f.db.EventSeq(), base: f.db.EventBase(), durable: f.pers.Durable(), repl: f.rep.Seq()}
		}, stop)
	}()
	seen, wall := closedLoop(cs, share(shareTraced), rec)
	close(stop)
	samples := <-sampled
	rt1 := readRuntime()
	seq1 := f.db.EventSeq()
	fs1 := f.fs.snapshot()
	gw1 := f.gw.Stats()
	hits1, misses1 := f.cacheStats()

	after, afterWall := closedLoop(cs, share(shareBase)/2, nil)
	base.merge(&after)
	baseRate := float64(len(base.done)) / (baseWall + afterWall).Seconds()
	open, _ := openLoop(cs, share(shareOpen), baseRate/2)

	all := base
	all.merge(&seen)
	all.merge(&open)
	rep := finish(f, cs, all, r.writes())
	m := rep.Metrics

	// Spans into the ledger.
	spans, dropped := rec.recorded()
	if dropped > 0 {
		return rep, fmt.Errorf("span buffer too small: %d spans dropped", dropped)
	}
	traces := foldSpans(spans)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep, err
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+r.w.Name+".jsonl"), spans); err != nil {
		return rep, err
	}
	reads, writes := account(traces, false), account(traces, true)
	// The ledger is kept over the class of request the workload mostly
	// sends.
	main, class := reads, readOp
	if writes.n > reads.n {
		main, class = writes, writeOp
	}
	done := float64(len(seen.done))
	readNS, writeNS := seen.latencies(readOp), seen.latencies(writeOp)
	baseP50 := percentile(base.latencies(class), 0.5)
	tracedP50 := percentile(seen.latencies(class), 0.5)

	m.set("gateway.self_p50_us", "us", us(reads.selfP50[spanGateway]))
	m.set("gateway.self_p99_us", "us", us(reads.selfP99[spanGateway]))
	m.set("gateway.write_self_p50_us", "us", us(writes.selfP50[spanGateway]))
	m.set("gateway.retries", "count", float64(gw1.Retries-gw0.Retries))
	m.set("gateway.stale_served_pct", "%", pct(float64(all.stale), float64(all.attempted)))
	m.set("gateway.reads_primary_pct", "%", pct(float64(rec.readsToPrimary.Load()), float64(rec.reads.Load())))
	m.set("nethttp.front_hop_p50_us", "us", us(main.selfP50[spanClient]))
	m.set("nethttp.back_hop_p50_us", "us", us(main.selfP50[spanUpstream]))
	m.set("httpguard.self_p50_us", "us", us(main.selfP50[spanFrontGate]+main.selfP50[spanBackGate]))
	m.set("httpguard.shed", "count", float64(all.shed))
	m.set("httpguard.inflight_max", "count", float64(rec.inflightMax.Load()))
	m.set("dissenterweb.serve_p50_us", "us", us(main.webP50))
	m.set("dissenterweb.serve_p99_us", "us", us(main.webP99))
	m.set("dissenterweb.hit_ratio", "ratio", pct(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))/100)
	m.set("dissenterweb.status_304_pct", "%", pct(float64(seen.notModified), float64(len(readNS))))
	m.set("dissenterweb.resp_bytes_p50", "B", float64(percentile(sortedCopy(seen.respBytes), 0.5)))

	events := float64(seq1 - seq0)
	m.set("platform.events", "count", events)
	var logMax, lagMax uint64
	for _, s := range samples {
		// The cursors are read one after another, so a later one can
		// be ahead of an earlier one.
		logMax = max(logMax, s.head-min(s.head, s.base))
		lagMax = max(lagMax, s.head-min(s.head, s.repl))
	}
	m.set("platform.log_len_max", "count", float64(logMax))
	syncs := fs1.walSyncs[len(fs0.walSyncs):]
	m.set("eventlog.fsyncs", "count", float64(len(syncs)))
	m.set("eventlog.fsync_p50_us", "us", us(percentile(sortedCopy(syncs), 0.5)))
	m.set("eventlog.fsync_busy_pct", "%", pct(float64(fs1.syncNS-fs0.syncNS), float64(wall)))
	m.set("eventlog.events_per_fsync", "count", ratio(events, float64(len(syncs))))
	m.set("eventlog.rotations", "count", float64(fs1.renames-fs0.renames))
	m.set("eventlog.write_amp", "ratio", ratio(float64(fs1.bytes-fs0.bytes), float64(fs1.walBytes-fs0.walBytes)))
	lags := sortedCopy(durableLags(samples))
	m.set("eventlog.durable_lag_p50_us", "us", us(percentile(lags, 0.5)))
	m.set("eventlog.durable_lag_p99_us", "us", us(percentile(lags, 0.99)))

	var visible, endToEnd []int64
	for _, c := range cs {
		for _, a := range c.acked {
			onReplica, ok1 := f.replicaStamp.stamp(a.id)
			onPrimary, ok2 := f.primaryStamp.stamp(a.id)
			if a.sent == 0 || !ok1 || !ok2 {
				continue // posted outside the traced phase
			}
			visible = append(visible, onReplica-onPrimary)
			endToEnd = append(endToEnd, onReplica-a.sent)
		}
	}
	visible, endToEnd = sortedCopy(visible), sortedCopy(endToEnd)
	m.set("replica.visible_lag_p50_us", "us", us(percentile(visible, 0.5)))
	m.set("replica.visible_lag_p99_us", "us", us(percentile(visible, 0.99)))
	m.set("replica.lag_events_max", "count", float64(lagMax))

	m.set("process.allocs_per_op", "count", float64(rt1.mem.Mallocs-rt0.mem.Mallocs)/done)
	m.set("process.gc_cpu_pct", "%", pct(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU))
	var pauseMax uint64
	for n := rt0.mem.NumGC; n < rt1.mem.NumGC && n < rt0.mem.NumGC+256; n++ {
		pauseMax = max(pauseMax, rt1.mem.PauseNs[n%256])
	}
	m.set("process.gc_pause_max_us", "us", float64(pauseMax)/1e3)
	m.set("process.heap_live_mb", "MB", float64(rt1.mem.HeapAlloc)/(1<<20))

	m.set("client.read_p50_us", "us", us(percentile(readNS, 0.5)))
	m.set("client.read_p99_us", "us", us(percentile(readNS, 0.99)))
	m.set("client.write_ack_p50_us", "us", us(percentile(writeNS, 0.5)))
	m.set("client.write_ack_p99_us", "us", us(percentile(writeNS, 0.99)))
	m.set("client.write_visible_p50_us", "us", us(percentile(endToEnd, 0.5)))
	m.set("client.request_p50_us", "us", us(main.totalP50))
	m.set("client.trace_overhead_pct", "%", pct(float64(tracedP50-baseP50), float64(baseP50)))
	openNS := open.latencies(anyOp)
	m.set("client.open_p50_us", "us", us(percentile(openNS, 0.5)))
	m.set("client.open_p99_us", "us", us(percentile(openNS, 0.99)))
	m.set("client.open_late_max_us", "us", us(percentile(sortedCopy(open.lateNS), 1)))
	m.set("ledger.unattributed_pct", "%", main.unattributedPct)

	// Probes: the replication floor on the idle live fleet, the rest in
	// process on the store the workload left.
	each := share(shareProbes) / probeLoops
	m.set("replica.idle_apply_lag_us", "us", probeIdleApply(each, f, r.plan.urlIDs[0]))
	db := f.db
	closeClients(cs)
	f.close()
	closed = true
	if err := runProbes(each, db, r.plan, r.dir, m); err != nil {
		return rep, err
	}
	return rep, nil
}

func pct(part, whole float64) float64 { return 100 * ratio(part, whole) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
