package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/eventlog"
	"dissenter/internal/gateway"
	"dissenter/internal/httpguard"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
	"dissenter/internal/synth"
)

// corpusSeed is fixed: the corpus is the fixture every run shares, and
// --seed varies only the traffic drawn over it. Page sizes differ
// between synth seeds by more than any bound in BENCHMARK.json.
const corpusSeed = 1

// fleet is the real topology in one process over loopback sockets,
// wired the way cmd/dissenter-platform, -replica and -gateway wire it:
// a durable primary behind admission control, one replica tailing it
// into its own WAL and serving read-only through an atomically swapped
// handler, and the gateway in front of both.
type fleet struct {
	db   *platform.DB // the primary's store
	web  *dissenterweb.Server
	pers *eventlog.Persister
	rep  *replica.Replica
	gw   *gateway.Gateway

	repWeb atomic.Pointer[dissenterweb.Server]
	binds  atomic.Int32 // OnState calls: 1 at Open, 2 after the bootstrap

	primaryHost, replicaHost, gatewayHost string

	// Traced runs only.
	rec                        *recorder
	primaryStamp, replicaStamp *stampView
	fs                         *countFS

	persistErrs atomic.Int32
	dir         string
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	transports  []*http.Transport
}

// serve runs h under httpguard.Serve on a fresh loopback port until the
// fleet closes.
func (f *fleet) serve(ctx context.Context, h http.Handler, health *httpguard.Health) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		httpguard.Serve(ctx, ln, h, httpguard.ServeOptions{Health: health, DrainTimeout: time.Second})
	}()
	return ln.Addr().String(), nil
}

// span wraps h in a recorded span on a traced fleet.
func (f *fleet) span(kind spanKind, h http.Handler) http.Handler {
	if f.rec == nil {
		return h
	}
	return f.rec.handler(kind, h)
}

func (f *fleet) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	f.transports = append(f.transports, tr)
	return tr
}

// buildFleet generates the corpus and brings the fleet up to the point
// where the replica has bootstrapped from the primary's snapshot, is
// streaming, and holds byte-identical state. rec is nil for an
// untraced run.
func buildFleet(dir string, size sizing, rec *recorder) (*fleet, error) {
	f := &fleet{dir: dir, rec: rec}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	f.db = synth.Generate(synth.NewConfig(size.scale, corpusSeed)).DB
	persistOpts := eventlog.Options{OnError: func(error, bool) { f.persistErrs.Add(1) }}
	replicaOpts := replica.Options{}
	if rec != nil {
		f.fs = newCountFS()
		persistOpts.FS = f.fs
		f.primaryStamp, f.replicaStamp = newStampView(rec), newStampView(rec)
		f.db.RegisterView(f.primaryStamp)
	}
	var err error
	if f.pers, err = eventlog.StartPersister(f.db, filepath.Join(dir, "primary"), persistOpts); err != nil {
		return nil, fmt.Errorf("start persister: %w", err)
	}

	// Primary: cmd/dissenter-platform's web surface and operational
	// mounts (the other simulators it hosts take no benchmark traffic).
	health := httpguard.NewHealth(httpguard.Check{Name: "persister", Probe: f.pers.Err})
	f.web = dissenterweb.NewServer(f.db, dissenterweb.WithHealth(health), dissenterweb.WithURLRateLimit(0, time.Minute))
	registerProbeSessions(f.web)
	for i, u := range f.db.ActiveUsers() {
		if i == writerSessions {
			break
		}
		f.web.RegisterSession(fmt.Sprintf("w%d", i), dissenterweb.Session{Username: u.Username})
	}
	root := http.NewServeMux()
	root.HandleFunc("/healthz", health.Healthz)
	root.HandleFunc("/readyz", health.Readyz)
	root.Handle("/replication/", &replica.Publisher{DB: f.db})
	root.HandleFunc("/replication-status", func(w http.ResponseWriter, r *http.Request) {
		replica.ServeStatus(w, replica.PrimaryStatus(f.db, f.pers.Durable(), f.pers.Err()))
	})
	root.Handle("/", f.span(spanBackGate, httpguard.Admission(1024, time.Second, f.span(spanWeb, f.web))))
	if f.primaryHost, err = f.serve(ctx, root, health); err != nil {
		return nil, err
	}

	// Replica: cmd/dissenter-replica. OnState replaces the store after
	// the snapshot bootstrap, so the server is rebuilt over it and
	// traffic reaches it through an atomic load.
	replicaOpts.Client = &http.Client{Transport: f.transport()}
	replicaOpts.OnState = func(db *platform.DB) {
		web := dissenterweb.NewServer(db, dissenterweb.ReadOnly(), dissenterweb.WithURLRateLimit(0, time.Minute))
		registerProbeSessions(web)
		db.RegisterView(web.EventInvalidator())
		if f.replicaStamp != nil {
			db.RegisterView(f.replicaStamp)
		}
		f.repWeb.Store(web)
		f.binds.Add(1)
	}
	if f.rep, err = replica.Open(filepath.Join(dir, "replica"), "http://"+f.primaryHost+"/replication", replicaOpts); err != nil {
		return nil, fmt.Errorf("open replica: %w", err)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.rep.Run(ctx)
	}()
	ready := func() error { return f.rep.Ready(30*time.Second, 65536) }
	repHealth := httpguard.NewHealth(httpguard.Check{Name: "replication", Probe: ready})
	repMux := http.NewServeMux()
	repMux.HandleFunc("/healthz", repHealth.Healthz)
	repMux.HandleFunc("/readyz", repHealth.Readyz)
	repMux.HandleFunc("/replication-status", func(w http.ResponseWriter, r *http.Request) {
		replica.ServeStatus(w, f.rep.StatusJSON())
	})
	repMux.Handle("/", f.span(spanWeb, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ready() != nil {
			w.Header().Set("X-Served-Stale", "1")
		}
		f.repWeb.Load().ServeHTTP(w, r)
	})))
	if f.replicaHost, err = f.serve(ctx, repMux, repHealth); err != nil {
		return nil, err
	}

	// A seeded idle primary has EventSeq 0, so "replica caught up" is
	// true before the 410 -> snapshot bootstrap has even begun: wait
	// for the rebind, then for the stream, then for equal bytes.
	if err := f.await("replica bootstrap", func() bool { return f.binds.Load() >= 2 }); err != nil {
		return nil, err
	}
	if err := f.converge(); err != nil {
		return nil, err
	}

	// Gateway: cmd/dissenter-gateway with its default flags. The first
	// probe round runs after convergence so the replica starts in the
	// fresh tier.
	var tr http.RoundTripper = f.transport()
	if rec != nil {
		tr = &upstream{rec: rec, next: tr, primaryHost: f.primaryHost}
	}
	f.gw = gateway.New("http://"+f.primaryHost, []string{"http://" + f.replicaHost}, gateway.Options{
		Transport: tr,
		MaxLag:    4096,
	})
	f.gw.ProbeNow(ctx)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.gw.Run(ctx)
	}()
	gwHealth := httpguard.NewHealth(httpguard.Check{Name: "backends", Probe: f.gw.ReadyCheck})
	gwMux := http.NewServeMux()
	gwMux.HandleFunc("/healthz", gwHealth.Healthz)
	gwMux.HandleFunc("/readyz", gwHealth.Readyz)
	gwMux.HandleFunc("/gateway/status", f.gw.ServeStatus)
	gwMux.Handle("/", f.span(spanFrontGate, httpguard.Admission(1024, time.Second, f.span(spanGateway, f.gw))))
	if f.gatewayHost, err = f.serve(ctx, gwMux, gwHealth); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

func registerProbeSessions(web *dissenterweb.Server) {
	web.RegisterSession("nsfw-probe", dissenterweb.Session{ShowNSFW: true})
	web.RegisterSession("off-probe", dissenterweb.Session{ShowOffensive: true})
}

// await polls cond until it holds, for at most a minute.
func (f *fleet) await(what string, cond func() bool) error {
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// cacheStats sums the response caches' counters over both servers.
func (f *fleet) cacheStats() (hits, misses uint64) {
	h1, m1 := f.web.CacheStats()
	h2, m2 := f.repWeb.Load().CacheStats()
	return h1 + h2, m1 + m2
}

// snapshotBytes encodes db's state with URLs and comments in id order.
// A raw checkpoint lists them in insertion order, and under concurrent
// writers that order is not replicated: two handlers can append their
// comments to the primary's store in one order and their events to its
// log in the other, and the replica inserts in log order. The state is
// the same set either way, so the sets are what is compared.
func snapshotBytes(db *platform.DB) []byte {
	cp := db.Checkpoint()
	slices.SortFunc(cp.URLs, func(a, b *platform.CommentURL) int { return bytes.Compare(a.ID[:], b.ID[:]) })
	slices.SortFunc(cp.Comments, func(a, b *platform.Comment) int { return bytes.Compare(a.ID[:], b.ID[:]) })
	return eventlog.EncodeSnapshot(cp)
}

// converge waits until the fleet is quiet and whole: the replica is
// streaming and has applied the primary's head, both WALs are durable
// to their heads, and the two stores encode to identical snapshots.
func (f *fleet) converge() error {
	err := f.await("replica to catch up and both WALs to be durable", func() bool {
		head := f.db.EventSeq()
		return f.rep.Status().Connected && f.rep.Seq() == head &&
			f.pers.Durable() == head && f.rep.Durable() == head
	})
	if err != nil {
		return err
	}
	if n := f.persistErrs.Load(); n > 0 {
		return fmt.Errorf("primary persister reported %d errors", n)
	}
	if !bytes.Equal(snapshotBytes(f.db), snapshotBytes(f.rep.DB())) {
		return errors.New("primary and replica snapshots differ after convergence")
	}
	return nil
}

// close stops the fleet and removes its directory: the stream and the
// prober first, so the servers drain at once, then the WALs.
func (f *fleet) close() {
	f.cancel()
	for _, tr := range f.transports {
		tr.CloseIdleConnections()
	}
	f.wg.Wait()
	if f.rep != nil {
		f.rep.Close()
	}
	if f.pers != nil {
		f.pers.Close()
	}
	os.RemoveAll(f.dir)
}
