package httpguard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Root is one server process: the operational surface every binary
// shares, the app behind admission control, and the run loop. Each
// fleet role fills one in exactly one place — replica.PrimaryRoot,
// (*replica.Replica).Root, (*gateway.Gateway).Root — which the binaries
// Run and the test rigs Serve.
//
// /healthz, /readyz, the Exempt mounts and (with Pprof) /debug/pprof/
// sit OUTSIDE admission: the load balancer must always reach the
// health endpoints, a profile of a saturated process is exactly the
// one worth taking, and a status or replication mount starved by
// shedding makes an overload worse. Every other path reaches App
// through Admission(MaxInflight).
type Root struct {
	Addr        string
	Health      *Health
	MaxInflight int // concurrent App requests before shedding; 0 = unbounded
	Pprof       bool
	Exempt      map[string]http.Handler // ServeMux pattern → handler
	App         http.Handler
	// Close, when set, runs exactly once after the HTTP drain (or a
	// failed listen): where a store flushes its WAL, so the last acked
	// batch is durable before the process exits.
	Close func() error
}

// Handler assembles the root mux.
func (rt Root) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.Health.Healthz)
	mux.HandleFunc("/readyz", rt.Health.Readyz)
	for pattern, h := range rt.Exempt {
		mux.Handle(pattern, h)
	}
	if rt.Pprof {
		// Wired explicitly, not via net/http/pprof's DefaultServeMux
		// side effect (no binary serves that mux), and opt-in: the
		// endpoints reveal runtime internals and cost real CPU while a
		// profile is being sampled.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("pprof mounted at /debug/pprof/")
	}
	mux.Handle("/", Admission(rt.MaxInflight, time.Second, rt.App))
	return mux
}

// Serve serves the root on ln until ctx ends, drains, then runs Close.
func (rt Root) Serve(ctx context.Context, ln net.Listener) error {
	err := Serve(ctx, ln, rt.Handler(), ServeOptions{Health: rt.Health, Logf: log.Printf})
	return errors.Join(err, rt.close())
}

func (rt Root) close() error {
	if rt.Close == nil {
		return nil
	}
	if err := rt.Close(); err != nil {
		return fmt.Errorf("close after drain: %w", err)
	}
	log.Printf("flushed and closed (durable is current)")
	return nil
}

// Run is a server binary's whole life: listen on Addr, serve until
// SIGINT/SIGTERM, drain, close. Every binary exits by one policy: Run
// returns nil after a clean drain and close (exit 0), and the listen,
// serve, drain-timeout or close error otherwise (exit 1).
func (rt Root) Run() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", rt.Addr)
	if err != nil {
		return errors.Join(err, rt.close())
	}
	return rt.Serve(ctx, ln)
}
