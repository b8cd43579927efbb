package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/gateway"
	"dissenter/internal/httpguard"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
)

// Gateway schedules (7-9). Each builds a miniature three-tier fleet —
// gateway handler, primary HTTP surface, real replicas streaming over
// real sockets — and scripts faults through the faultinject listener
// and transport seams. Probing is driven by ProbeNow at scripted
// points (never the background loop), retries are counter-budgeted,
// and every client connection is fresh (keep-alives off), so every
// accept, tear, and refusal lands on a known request.

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveRoot serves a fleet member's Root over ln until test cleanup,
// which drains it and runs its Close.
func serveRoot(t *testing.T, root httpguard.Root, ln net.Listener) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- root.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })
}

// replicaFiller pads read responses past any CutAfter byte budget, so
// a scripted tear always lands mid-body, after the status line.
var replicaFiller = strings.Repeat("x", 4096)

// serveReplicaBackend opens a replica of primaryURL and serves its Root
// on ln: the real status page, readiness and replication loop, and as
// the read surface a scripted page naming who served it.
func serveReplicaBackend(t *testing.T, primaryURL string, opt replica.Options, name string, ln net.Listener) *replica.Replica {
	t.Helper()
	rep := openReplica(t, t.TempDir(), primaryURL, opt)
	serveRoot(t, rep.Root(func(db *platform.DB) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%s seq %d\n%s", name, db.EventSeq(), replicaFiller)
		})
	}, time.Hour, 0), ln)
	return rep
}

// servePrimaryBackend serves db's PrimaryRoot on ln over a scripted
// app: a write endpoint, and a read surface whose hits the test counts
// (the pool exists to keep that counter low).
func servePrimaryBackend(t *testing.T, db *platform.DB, ln net.Listener, reads *atomic.Int64, onVote func()) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/discussion/vote", func(w http.ResponseWriter, r *http.Request) {
		if onVote != nil {
			onVote()
		}
		fmt.Fprintln(w, "voted")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if reads != nil {
			reads.Add(1)
		}
		fmt.Fprintf(w, "primary seq %d\n", db.EventSeq())
	})
	serveRoot(t, replica.PrimaryRoot(db, nil, mux), ln)
}

func gwDo(g *gateway.Gateway, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func gwBackend(t *testing.T, g *gateway.Gateway, name string) gateway.BackendStatus {
	t.Helper()
	for _, b := range g.Stats().Backends {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no backend %q in gateway stats", name)
	return gateway.BackendStatus{}
}

// freshConns gives every proxied request and probe its own TCP
// connection, so listener-seam faults map 1:1 onto requests.
func freshConns() http.RoundTripper { return &http.Transport{DisableKeepAlives: true} }

// Schedule 7 — replica killed mid-request. The only replica's listener
// tears one in-flight read response mid-body, then refuses every
// connection (the in-process analogue of a SIGKILL). Every client read
// must still answer 200 — buffered failover hides the tear — the dead
// replica must eject after EjectAfter consecutive failures, stay
// ejected through recovery until the half-open probe, and the retry
// budget must account for exactly the three failovers.
func TestChaosGatewayReplicaTornMidRead(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	corpus(t, primary, 0xA117, 10)
	pub := httptest.NewServer(&replica.Publisher{DB: primary})
	t.Cleanup(pub.Close)

	inj := faultinject.NewInjector(
		// Accepts #1-2 are the initial probe round (status, readyz);
		// accept #3 serves the first read whole. Accept #4 is torn 1 KiB
		// into its response — mid-body — and every accept after that is
		// refused: the process is gone.
		faultinject.Rule{Op: faultinject.OpConnWrite, After: 3, Count: 1, CutAfter: 1024},
		faultinject.Rule{Op: faultinject.OpAccept, After: 4, Count: 0, Err: faultinject.ErrInjected},
	)
	rln := listen(t)
	rep := serveReplicaBackend(t, pub.URL, replica.Options{}, "r1", inj.Listener(rln))
	waitFor(t, "replica catch-up", func() bool { return rep.Seq() == primary.EventSeq() })
	pln := listen(t)
	servePrimaryBackend(t, primary, pln, nil, nil)

	g := gateway.New("http://"+pln.Addr().String(), []string{"http://" + rln.Addr().String()},
		gateway.Options{Transport: freshConns(), EjectAfter: 3, Logf: t.Logf})
	g.ProbeNow(context.Background())

	// Reads 1-6: one clean, one torn mid-body, two refused (the third
	// consecutive failure ejects), two served while ejected. ZERO may
	// fail — the primary is still healthy.
	served := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		rec := gwDo(g, "GET", "/trends")
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d = %d during replica death, want 200 (a healthy backend remains)", i+1, rec.Code)
		}
		served = append(served, strings.SplitN(rec.Body.String(), " ", 2)[0])
	}
	if served[0] != "r1" {
		t.Fatalf("read 1 served by %q, want the healthy replica", served[0])
	}
	for i, who := range served[1:] {
		if who != "primary" {
			t.Fatalf("read %d served by %q, want primary failover while the replica dies", i+2, who)
		}
	}
	if cut := inj.FireCount(faultinject.OpConnWrite); cut != 1 {
		t.Fatalf("mid-response tears fired %d times, want 1", cut)
	}
	if refused := inj.FireCount(faultinject.OpAccept); refused != 2 {
		t.Fatalf("refused accepts fired %d times, want 2 (reads 3-4; later reads must not dial an ejected backend)", refused)
	}
	st := gwBackend(t, g, "replica1")
	if !st.Ejected || st.Served != 1 {
		t.Fatalf("replica1 after death: ejected=%v served=%d, want ejected after exactly 1 successful response", st.Ejected, st.Served)
	}
	if s := g.Stats(); s.Retries != 3 || s.RetriesDenied != 0 {
		t.Fatalf("retry budget spent %d/denied %d, want exactly 3 failovers and none denied", s.Retries, s.RetriesDenied)
	}

	// The process comes back — but passive recovery must not re-admit:
	// reads keep avoiding it until a successful probe round.
	inj.Clear()
	if rec := gwDo(g, "GET", "/trends"); rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "primary") {
		t.Fatalf("read before re-probe = %d %q, want the primary still (ejection outlives recovery)", rec.Code, rec.Body.String())
	}
	if gwBackend(t, g, "replica1").Served != 1 {
		t.Fatal("ejected replica served traffic before its half-open probe")
	}
	g.ProbeNow(context.Background())
	if gwBackend(t, g, "replica1").Ejected {
		t.Fatal("replica still ejected after a successful half-open probe")
	}
	if rec := gwDo(g, "GET", "/trends"); !strings.HasPrefix(rec.Body.String(), "r1") {
		t.Fatalf("post-readmit read served by %q, want r1 back in rotation", rec.Body.String())
	}
}

// Schedule 8 — primary flap during write load. The primary's web
// listener refuses all connections for a window while votes keep
// arriving. Reads never fail (the replica shields them); writes fail
// fast — 502 while dialing, 503 once the breaker opens — and are NEVER
// replayed onto the recovered primary: after the flap clears, writes
// stay shed until the half-open probe re-admits, and the stores
// converge byte-identically on exactly the votes that were accepted.
func TestChaosGatewayPrimaryFlapDuringWrites(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	gen := ids.NewGenerator(0xB117)
	base := time.Unix(1_582_200_000, 0).UTC()
	cu := &platform.CommentURL{ID: gen.NewAt(base), URL: "https://chaos.test/gw-flap", FirstSeen: base}
	primary.SubmitURL(cu)
	pub := httptest.NewServer(&replica.Publisher{DB: primary})
	t.Cleanup(pub.Close)
	rln := listen(t)
	rep := serveReplicaBackend(t, pub.URL, replica.Options{}, "r1", rln)

	inj := faultinject.NewInjector()
	pln := listen(t)
	servePrimaryBackend(t, primary, inj.Listener(pln), nil, func() { primary.Vote(cu.ID, 1, 0) })

	g := gateway.New("http://"+pln.Addr().String(), []string{"http://" + rln.Addr().String()},
		gateway.Options{Transport: freshConns(), EjectAfter: 2, Logf: t.Logf})
	g.ProbeNow(context.Background())

	vote := func() *httptest.ResponseRecorder {
		return gwDo(g, "GET", "/discussion/vote?url=https%3A%2F%2Fchaos.test%2Fgw-flap&dir=up")
	}
	for i := 0; i < 5; i++ {
		if rec := vote(); rec.Code != http.StatusOK {
			t.Fatalf("pre-flap vote %d = %d", i, rec.Code)
		}
	}
	accepted := primary.EventSeq()
	waitFor(t, "replica to track pre-flap votes", func() bool { return rep.Seq() == accepted })

	// The flap: every new connection to the primary's web port dies.
	inj.SetRules(faultinject.Rule{Op: faultinject.OpAccept, Count: 0, Err: faultinject.ErrInjected})
	for i, want := range []int{http.StatusBadGateway, http.StatusBadGateway, http.StatusServiceUnavailable} {
		if rec := vote(); rec.Code != want {
			t.Fatalf("flap vote %d = %d, want %d (502 dialing, then breaker-open 503)", i, rec.Code, want)
		}
		// Write load does not starve reads: the replica pool still
		// answers every one.
		if rec := gwDo(g, "GET", "/trends"); rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "r1") {
			t.Fatalf("read during flap = %d %q, want 200 from the replica", rec.Code, rec.Body.String())
		}
	}
	if refused := inj.FireCount(faultinject.OpAccept); refused != 2 {
		t.Fatalf("refused accepts fired %d times, want 2: the open breaker must stop dialing a dead primary", refused)
	}

	// Flap ends. The breaker must NOT trust silence: writes stay shed
	// until a probe proves the primary out, so no write is replayed
	// into an ambiguous recovery window.
	inj.Clear()
	if rec := vote(); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-flap pre-probe vote = %d, want 503 (re-admission is the probe's job alone)", rec.Code)
	}
	g.ProbeNow(context.Background())
	for i := 0; i < 3; i++ {
		if rec := vote(); rec.Code != http.StatusOK {
			t.Fatalf("post-readmit vote %d = %d", i, rec.Code)
		}
	}
	if got := primary.EventSeq(); got != accepted+3 {
		t.Fatalf("primary applied %d events post-flap, want exactly the 3 re-admitted votes (none replayed)", got-accepted)
	}
	waitFor(t, "replica convergence", func() bool { return rep.Seq() == primary.EventSeq() })
	assertBytesConverged(t, primary, rep.DB())
}

// Schedule 9 — whole-pool lag excursion. Both replicas lose their
// streams (cut + reconnects blocked) while the primary takes 200 more
// events, pushing the pool far past -max-lag. Reads must degrade to
// stale-labeled 200s served BY THE POOL — the primary's read surface
// takes zero requests — because the fleet-head lag computation
// overrides the replicas' own too-optimistic self-reports. When the
// partition heals, the pool catches up and routing goes fresh again.
func TestChaosGatewayPoolLagExcursion(t *testing.T) {
	primary := platform.New(nil, nil, nil, nil)
	corpus(t, primary, 0xC117, 10)
	pub := httptest.NewServer(&replica.Publisher{DB: primary})
	t.Cleanup(pub.Close)

	inj := faultinject.NewInjector()
	streamClient := &http.Client{Transport: inj.Transport(http.DefaultTransport)}
	ln1, ln2, pln := listen(t), listen(t), listen(t)
	r1 := serveReplicaBackend(t, pub.URL, replica.Options{Client: streamClient}, "r1", ln1)
	r2 := serveReplicaBackend(t, pub.URL, replica.Options{Client: streamClient}, "r2", ln2)
	waitFor(t, "pool catch-up", func() bool {
		return r1.Seq() == primary.EventSeq() && r2.Seq() == primary.EventSeq()
	})
	var primaryReads atomic.Int64
	servePrimaryBackend(t, primary, pln, &primaryReads, nil)

	g := gateway.New("http://"+pln.Addr().String(),
		[]string{"http://" + ln1.Addr().String(), "http://" + ln2.Addr().String()},
		gateway.Options{Transport: freshConns(), MaxLag: 64, Logf: t.Logf})
	g.ProbeNow(context.Background())
	if rec := gwDo(g, "GET", "/trends"); rec.Header().Get("X-Served-Stale") != "" {
		t.Fatal("fresh pool serving stale-labeled reads")
	}

	// Partition the pool: cut live streams, block reconnects.
	inj.SetRules(faultinject.Rule{Op: faultinject.OpRoundTrip, Path: "/events", Count: 0, Err: faultinject.ErrInjected})
	pub.CloseClientConnections()
	waitFor(t, "both streams down", func() bool {
		return !r1.Status().Connected && !r2.Status().Connected
	})
	corpus(t, primary, 0xC118, 50) // 200 events the pool cannot see

	g.ProbeNow(context.Background())
	for _, name := range []string{"replica1", "replica2"} {
		if st := gwBackend(t, g, name); st.Lag <= 64 || st.Ejected {
			t.Fatalf("%s after excursion: lag=%d ejected=%v, want fleet-computed lag > 64 and no ejection", name, st.Lag, st.Ejected)
		}
	}
	for i := 0; i < 8; i++ {
		rec := gwDo(g, "GET", "/trends")
		if rec.Code != http.StatusOK {
			t.Fatalf("excursion read %d = %d, want a degraded 200, never a 5xx", i, rec.Code)
		}
		if rec.Header().Get("X-Served-Stale") != "1" {
			t.Fatalf("excursion read %d missing X-Served-Stale: 1", i)
		}
		if who := strings.SplitN(rec.Body.String(), " ", 2)[0]; who != "r1" && who != "r2" {
			t.Fatalf("excursion read %d served by %q, want the stale pool", i, who)
		}
	}
	if got := primaryReads.Load(); got != 0 {
		t.Fatalf("primary read surface took %d requests during the excursion, want 0 (stale replicas shield it)", got)
	}

	// Heal: streams reconnect, the pool catches up, routing goes fresh.
	inj.Clear()
	waitFor(t, "pool reconvergence", func() bool {
		return r1.Seq() == primary.EventSeq() && r2.Seq() == primary.EventSeq()
	})
	g.ProbeNow(context.Background())
	if rec := gwDo(g, "GET", "/trends"); rec.Code != http.StatusOK || rec.Header().Get("X-Served-Stale") != "" {
		t.Fatalf("healed read = %d stale=%q, want a fresh 200", rec.Code, rec.Header().Get("X-Served-Stale"))
	}
	assertBytesConverged(t, primary, r1.DB())
	assertBytesConverged(t, primary, r2.DB())
}
