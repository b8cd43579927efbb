package replica

import (
	"context"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"dissenter/internal/eventlog"
	"dissenter/internal/httpguard"
	"dissenter/internal/platform"
)

// A fleet member is an httpguard.Root. The two constructors here (and
// gateway.Gateway.Root) are the only places one is assembled: the
// binaries set Addr, MaxInflight and Pprof on the result and Run it,
// and every test rig serves the same value through Root.Serve.

// PrimaryRoot is the primary: app behind admission control, and
// outside it the replication surface (/replication/ — replicas falling
// behind make every overload worse) and /replication-status, the
// StatusJSON shape every member serves so the gateway's prober decodes
// one struct fleet-wide. pers is the store's persister, nil for an
// in-memory primary. With one, readiness tracks durability — a sticky
// failure means this instance is acking writes it can no longer
// persist, so /readyz pulls it from rotation while it keeps serving
// what it has — and the Root's Close is the persister's flush.
func PrimaryRoot(db *platform.DB, pers *eventlog.Persister, app http.Handler) httpguard.Root {
	rt := httpguard.Root{Health: httpguard.NewHealth(), App: app}
	status := func() StatusJSON { return PrimaryStatus(db, 0, nil) }
	if pers != nil {
		rt.Health = httpguard.NewHealth(httpguard.Check{Name: "persister", Probe: pers.Err})
		rt.Close = pers.Close
		status = func() StatusJSON { return PrimaryStatus(db, pers.Durable(), pers.Err()) }
	}
	rt.Exempt = map[string]http.Handler{
		"/replication/": &Publisher{DB: db, Logf: log.Printf},
		"/replication-status": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			ServeStatus(w, status())
		}),
	}
	return rt
}

// Root is the replica as a server, and it STARTS the replication loop:
// call it once, instead of Run, and leave stopping to the Root's Close
// (= r.Close: end the loop, then flush the local WAL), which Root.Run
// and Root.Serve call after the HTTP drain — in-flight reads keep
// getting fresher pages until then.
//
// app builds the read surface over one store. It is called now for the
// current store and again from the replication loop whenever a
// snapshot bootstrap replaces it (one handler per store: a
// dissenterweb.Server attaches a coherence view for the store's life),
// and requests move to the new handler atomically — so no cache entry
// can describe state the new store never saw.
//
// Readiness is Ready(staleAfter, maxLag). A not-ready replica keeps
// serving — stale answers beat shed ones for this read-mostly corpus —
// and labels what it serves X-Served-Stale: 1 for as long as the check
// fails, so callers can tell a fresh page from a possibly-behind one.
func (r *Replica) Root(app func(*platform.DB) http.Handler, staleAfter time.Duration, maxLag uint64) httpguard.Root {
	var cur atomic.Pointer[http.Handler]
	bind := func(db *platform.DB) {
		h := app(db)
		cur.Store(&h)
	}
	r.mu.Lock()
	r.bind = bind
	r.mu.Unlock()
	bind(r.DB())
	go r.Run(context.Background())

	ready := func() error { return r.Ready(staleAfter, maxLag) }
	return httpguard.Root{
		Health: httpguard.NewHealth(httpguard.Check{Name: "replication", Probe: ready}),
		Exempt: map[string]http.Handler{
			"/replication-status": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				ServeStatus(w, r.StatusJSON())
			}),
		},
		App: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if ready() != nil {
				w.Header().Set("X-Served-Stale", "1")
			}
			(*cur.Load()).ServeHTTP(w, req)
		}),
		Close: r.Close,
	}
}
