// Package dissenter is a from-scratch Go reproduction of "Reading
// In-Between the Lines: An Analysis of Dissenter" (Rye, Blackburn,
// Beverly; IMC 2020) — the measurement study of Gab's web-annotation
// overlay.
//
// The platform is dead, so the repository contains both sides of the
// study: behaviourally-faithful simulators of every external system the
// paper depended on (the Gab API, the Dissenter web app, YouTube's
// JS-rendered pages, the Perspective API, Pushshift/Reddit) and the full
// measurement pipeline that the paper ran against the real thing
// (enumeration, response-size probing, differential authenticated
// crawling, hidden-metadata mining, social-graph crawling) plus every
// analysis in the evaluation (toxicity classification three ways,
// media-bias conditioning, the hateful-core extraction).
//
// Start with README.md and ROADMAP.md for the system inventory,
// cmd/dissenter-repro for the paper-vs-measured results (every table and
// figure of §4) and examples/quickstart for running code. The root-level
// benchmarks are the serving path's allocation budgets, the paper's
// ablations and a gateway probe (load: BENCHMARK.json, bench/).
//
// # Store architecture
//
// The ground truth lives in internal/platform.DB, a concurrency-safe
// sharded store. Every lookup index (users by Gab ID / username /
// author-id, URLs by id / address, comments by id / page / author, the
// follower reverse index, and the serve-time vote tallies) is split
// across 16 independently RWMutex-guarded shards keyed by a mixed hash
// of the index key, and is maintained incrementally on insert — there
// is no whole-store rebuild. Entity records are immutable once
// inserted; the comment listings grow by appending past every header
// handed out and the follow lists are replaced copy-on-write, so any
// slice handed to a reader is a stable snapshot. The mutable
// surfaces are Gab Trends URL submission (DB.SubmitURL, idempotent per
// address), voting (DB.Vote), and live comment posting (DB.AddComment),
// which the web simulator exposes at /discussion/begin,
// /discussion/vote, and POST /discussion/comment. All URL-keyed
// endpoints normalize the address with urlkit.Normalize first, so
// trivially different encodings of one address (scheme/host case,
// default ports, fragments) share one record, one vote tally, one
// cache subject, and one rate-limit bucket.
//
// Every mutation flows through one event-dispatch pipeline
// (internal/platform/events.go): the write method updates the base
// lookup indexes, appends a typed event (UserAdded, URLSubmitted,
// CommentAdded, FollowAdded, VoteCast) to the store's append-only
// event log, and fans it out to the registered materialized views —
// no write path hand-wires a ranking update. The log is the
// multi-backend seam: feeding DB.EventsSince to another store's
// DB.ApplyEvent re-applies the sequence through the same write paths,
// rebuilding its base indexes and views; replaying one log into two fresh stores yields
// identical view states (the determinism test pins this), so a
// persistent or remote backend only has to consume events, never scan.
// Views attach through the exported platform.View interface
// (Name/Apply/Rebuild, registered with DB.RegisterView) — the three
// built-in views and every web server's response-cache coherence view
// all use the same seam.
//
// The event stream is also the durability and replication contract.
// internal/eventlog defines the versioned binary codec (length-prefixed,
// CRC-32C-checksummed frames; append-only field compatibility; golden
// files pin the bytes), a group-commit write-ahead log, and a snapshot
// format over DB.Checkpoint; eventlog.Persister runs write-behind off
// AwaitEvents, rotates snapshot+WAL, and CompactLog-truncates the
// in-memory log so a long-lived primary's RAM stops growing.
// internal/replica serves the stream over chunked HTTP
// (replica.Publisher, resumable via ?since=, with a snapshot bootstrap
// behind 410 Gone) and consumes it out of process: a replica.Replica
// applies every event into its own DB through the normal write paths
// and serves the read surface read-only, byte-identical to the primary
// — proven by a crash-recovery test that kill -9s a real replica child
// process mid-stream and diffs every page after restart. Each fleet
// role is wired as a server once, as an httpguard.Root:
// replica.PrimaryRoot, (*replica.Replica).Root and
// (*gateway.Gateway).Root are what the three binaries run and what
// every test rig serves; the primary's simulators are one mux,
// internal/deployment.Mux, which the reproduction and every crawl test
// serve too.
//
// The hot read path never scans the store; two rankings and one
// content view are write-maintained over that event stream. The Gab
// Trends ranking bumps per-URL visibility-class counters on
// CommentAdded and re-offers the URL to a bounded top-50 structure per
// session view (rankheap.TopK under a short per-view mutex — exact
// under bounding because comment counts are monotone), so a cache-miss
// trends render is O(50) at any store size. The net-vote leaderboard
// (Figure 5's ordering, served at GET /leaderboard) is NOT monotone —
// downvotes sink a URL — so it uses rankheap.Exact, which remembers
// every URL across an elite top-50 heap and an overflow heap and stays
// exact under decrease-key at O(log #URLs) per vote, with per-URL
// sequence stamps resolving out-of-order offers. Oracle equivalence
// tests pin each ranking's exact agreement with a full scan under
// concurrent writes. Bulk readers (Validate, Census, analyses) iterate through
// the zero-copy RangeUsers/RangeURLs/RangeComments accessors, which
// pin the append-only insertion log under a brief read lock and walk
// it in place; no HTTP handler materializes a whole-store slice
// snapshot.
//
// The third view is content, not ordering: the discussion fragment
// view (internal/platform/pageindex.go) maintains, per rendered URL,
// the per-session-view comment streams a reader has asked for —
// ID-ordered concatenations of the visible pre-escaped rows: the
// show-everything stream itself for a view that hides none of the
// page's rows, a copy cut from it on first read otherwise — plus the
// visibility-class counters that derive every view's visible count. A
// posted comment escapes its one row and appends it; a discussion
// render (DB.CommentStream) is an O(1) stream snapshot and a counter
// read. That keeps a WRITE to a hot page O(delta) where the seed paid
// two full passes and one html.EscapeString per comment per miss —
// ~10k escapes on a viral page. The view is lazily materialized per
// URL on first render and write-maintained afterwards;
// out-of-ID-order event arrivals rebuild the page from the sorted base
// index. It is derived state a write needs, not a render cache:
// rendered output has one cache (internal/respcache, below), and a
// home render (DB.HomeURLs) is one pass over the author's comments per
// cache fill, with nothing kept between fills. Oracle tests pin
// stream-assembled pages byte-identical to a from-scratch full render
// across all four session views under concurrent posts and votes.
//
// The HTTP simulators front their hot endpoints — comment listings,
// user profiles, trends — with a small LRU+TTL response cache
// (internal/respcache) keyed by endpoint, subject, and session view, so
// shadow-overlay opt-ins never share cached pages with anonymous
// sessions (the leaderboard is view-independent — votes carry no
// overlay — and caches under one key). Misses coalesce through
// respcache.GetOrFillRev (singleflight): N concurrent requests on one
// cold key run ONE render, and a fill is cached only if its flight is
// still registered when it completes — Invalidate detaches it — so a
// fill racing an invalidation is handed to its waiters but never
// cached stale.
// Coherence has one home: dissenterweb.NewServer attaches a view to the
// store (dissenterweb/coherence.go), so a Server learns of every write
// — its own handlers', a replication stream's, a direct call's — from
// the event stream, before the write returns; the write handlers touch
// no cache. Its rules: discussion pages cache STRUCTURED entries (stable
// head, mutable vote/count span, fragment stream), so a vote patches
// two integers in place (respcache.UpdateRev) and a posted comment swaps
// in the view's grown stream — the page's escaped HTML is never
// discarded; a view with no live entry falls back to exact-key
// invalidation, which discards racing fills. Composing the patched
// generation costs its delta too: compressors are pooled, a segment
// under 4 KB is one fixed-Huffman block with no tables to build, and a
// large page's gzip variant is one member whose comment stream is
// handed from generation to generation and extended by deflating only
// the appended rows (respcache.ComposeSegments), while its identity
// bytes are written from the parts the entry already holds, never joined
// into a copy. A posted
// comment additionally drops every session view of the posting
// author's home page (its commented-URL listing changed shape) and of
// the trends ranking (comment counts order it) — by exact key across
// the enumerable session views, never a cache scan. URL
// submissions invalidate only the leaderboard (a newcomer enters the
// net-vote ranking at its baseline) — unknown-URL invitation pages are
// never cached (their keys are visitor-chosen, so caching them would
// let a URL scan evict the hot set) and the store fully indexes a
// submission before it becomes findable.
//
// The live write path is what makes the measurement side honest:
// internal/dissentercrawl's Poster writes comments while a Campaign
// crawls (the paper's §3.2 moving-target condition), the differential
// labeler re-verifies candidate shadow comments with a post-observation
// anonymous revisit so mid-crawl plain comments are never mislabeled,
// and Campaign.Stabilize re-spiders until the mirror reaches a fixpoint
// (see examples/live-crawl).
package dissenter
