package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dissenter/internal/eventlog"
	"dissenter/internal/faultinject"
	"dissenter/internal/platform"
)

// Options tunes a Replica.
type Options struct {
	// Client is the HTTP client used against the primary (default
	// http.DefaultClient). Streams are long-lived; do not set a
	// client-level timeout. Tests inject transport faults by setting a
	// client whose Transport is faultinject.Injector.Transport.
	Client *http.Client
	// ReconnectWait is the BASE pause between stream attempts after a
	// failure (default 250ms). Consecutive failures double the pause
	// up to maxBackoff times the base, with jitter so a fleet of
	// replicas does not reconnect in lockstep; any progress resets it
	// to the base.
	ReconnectWait time.Duration
	// FS is the filesystem the replica's local persistence goes
	// through (default the real one); tests script disk faults here.
	FS faultinject.FS
	// OnState is called with the replica's DB when it is (re)bound: once
	// during Open and again after every snapshot bootstrap, which
	// REPLACES the DB instance. A serving layer holding the old pointer
	// keeps reading a frozen store. Root does this rebinding itself; the
	// hook is for a caller that serves the store some other way.
	OnState func(*platform.DB)
	// Logf, when set, receives replication diagnostics.
	Logf func(format string, args ...any)
}

// maxBackoff caps the reconnect backoff at this multiple of
// Options.ReconnectWait.
const maxBackoff = 32

// Replica tails a primary's event stream into its own store. Open
// restores local durable state, Run drives the stream until the
// context ends or Close is called, DB hands the current store to a
// serving layer; Root (root.go) is all of that wired as one server.
type Replica struct {
	dir     string
	primary string // publisher mount, e.g. http://host:port/replication
	opt     Options
	client  *http.Client
	fs      faultinject.FS

	mu             sync.Mutex
	db             *platform.DB
	pers           *eventlog.Persister
	bind           func(*platform.DB) // Root's handler swap, called when a bootstrap replaces db
	closed         bool
	stopRun        context.CancelFunc // ends the Run in progress, if any
	running        sync.WaitGroup     // that Run; Add under mu while !closed
	streaming      bool
	lastHead       uint64
	disconnectedAt time.Time
}

func (r *Replica) logf(format string, args ...any) {
	if r.opt.Logf != nil {
		r.opt.Logf(format, args...)
	}
}

// persistOpts threads the replica's FS and diagnostics into its local
// durability loop. Sticky persister failures stay visible through
// Status/Ready, so a load balancer can rotate a disk-dead replica out
// while it keeps serving stale reads.
func (r *Replica) persistOpts() eventlog.Options {
	return eventlog.Options{
		FS: r.fs,
		OnError: func(err error, sticky bool) {
			r.logf("replica: persist (sticky=%v): %v", sticky, err)
		},
	}
}

// Open builds a replica over a local persistence directory, restoring
// whatever snapshot+WAL state a previous run left (eventlog.RestoreDir)
// — so a restarted replica re-enters the stream at its durable offset
// instead of replaying history — and starts the local durability loop.
// primaryURL is the publisher's mount (no trailing slash needed).
func Open(dir, primaryURL string, opt Options) (*Replica, error) {
	if opt.ReconnectWait <= 0 {
		opt.ReconnectWait = 250 * time.Millisecond
	}
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = faultinject.OS
	}
	db, skipped, err := eventlog.RestoreDirFS(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("replica: restore %s: %w", dir, err)
	}
	if db == nil {
		db = platform.New(nil, nil, nil, nil)
	} else if skipped > 0 {
		// Skipped WAL records mean our local history has holes the
		// primary's does not; our sequence cursor would lie. Bootstrap.
		db = platform.New(nil, nil, nil, nil)
		if err := fsys.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	r := &Replica{
		dir:            dir,
		primary:        trimSlash(primaryURL),
		opt:            opt,
		client:         client,
		fs:             fsys,
		db:             db,
		disconnectedAt: time.Now(),
	}
	pers, err := eventlog.StartPersister(db, dir, r.persistOpts())
	if err != nil {
		return nil, err
	}
	r.pers = pers
	if opt.OnState != nil {
		opt.OnState(db)
	}
	return r, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// DB returns the replica's current store. After a snapshot bootstrap
// this is a NEW instance; long-lived holders should serve through Root
// (or rebind via Options.OnState) instead of caching this value.
func (r *Replica) DB() *platform.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// Seq returns the replica's applied sequence number — its replication
// cursor (the store's own event log position, advanced by ApplyEvent).
func (r *Replica) Seq() uint64 { return r.DB().EventSeq() }

// Durable returns the highest sequence number the replica's local WAL
// guarantees on disk.
func (r *Replica) Durable() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pers == nil {
		return 0
	}
	return r.pers.Durable()
}

// Status is a point-in-time view of the replica's replication health.
type Status struct {
	// Connected reports whether an /events stream is open right now.
	Connected bool
	// LastHead is the primary's event head as of the last successful
	// stream connect (the X-Replication-Head header); 0 before any
	// stream has connected.
	LastHead uint64
	// Applied is the replica's own cursor.
	Applied uint64
	// Durable is the local WAL's on-disk guarantee.
	Durable uint64
	// Disconnected is how long the replica has been without a stream
	// (zero while connected; measured from Open before the first one).
	Disconnected time.Duration
	// PersistErr is the local durability loop's sticky error, if any.
	PersistErr error
}

// Status snapshots the replica's replication health.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Status{
		Connected: r.streaming,
		LastHead:  r.lastHead,
		Applied:   r.db.EventSeq(),
	}
	if r.pers != nil {
		s.Durable = r.pers.Durable()
		s.PersistErr = r.pers.Err()
	}
	if !r.streaming {
		s.Disconnected = time.Since(r.disconnectedAt)
	}
	return s
}

// Ready reports whether the replica should advertise itself to a load
// balancer: nil when healthy, otherwise an error naming the first
// failing check. staleAfter bounds how long a disconnected replica
// still counts as ready; maxLag bounds how far behind the primary's
// last-seen head the applied cursor may fall. Zero disables either
// check. A not-ready replica keeps serving reads — stale answers beat
// shed ones for this read-mostly corpus — readiness only steers the
// load balancer.
func (r *Replica) Ready(staleAfter time.Duration, maxLag uint64) error {
	s := r.Status()
	if s.PersistErr != nil {
		return fmt.Errorf("local persistence failed: %w", s.PersistErr)
	}
	if staleAfter > 0 && !s.Connected && s.Disconnected > staleAfter {
		return fmt.Errorf("disconnected from primary for %v (limit %v)", s.Disconnected.Round(time.Millisecond), staleAfter)
	}
	if maxLag > 0 && s.LastHead > s.Applied && s.LastHead-s.Applied > maxLag {
		return fmt.Errorf("replication lag %d events (limit %d)", s.LastHead-s.Applied, maxLag)
	}
	return nil
}

// Close ends the Run in progress, if any, waits for it to return, then
// stops the local durability loop, draining outstanding events to the
// WAL first. A closed replica cannot Run again.
func (r *Replica) Close() error {
	r.mu.Lock()
	r.closed = true
	stop := r.stopRun
	r.mu.Unlock()
	if stop != nil {
		stop()
	}
	r.running.Wait()
	// Only Run's bootstrap replaces the persister, and Run is over.
	r.mu.Lock()
	pers := r.pers
	r.pers = nil
	r.mu.Unlock()
	if pers == nil {
		return nil
	}
	return pers.Close()
}

// jitter spreads d over [d/2, d] so a fleet of replicas does not
// hammer a recovering primary in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(half+1)
}

// Run drives the replication loop until ctx ends or Close is called:
// stream, apply, reconnect on failure, bootstrap from a snapshot when
// the primary answers 410 Gone. It returns the context's error and
// never gives up on transient failures — a replica's job is to be
// caught up whenever the primary is reachable. A bootstrap is progress,
// not a stream end: the attempt that made it opens the stream at once.
// Between attempts Run waits a jittered Options.ReconnectWait; repeated
// failures without progress double the wait (capped at maxBackoff x
// Options.ReconnectWait), and any progress — a cursor advanced by
// applied events or a bootstrap, or a clean stream close — resets it to
// the base. One Run at a time.
func (r *Replica) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errors.New("replica: Run after Close")
	}
	r.stopRun = cancel
	r.running.Add(1)
	r.mu.Unlock()
	defer r.running.Done()

	wait := r.opt.ReconnectWait
	for {
		before := r.Seq()
		err := r.streamOnce(ctx)
		if err != nil && ctx.Err() == nil {
			r.logf("replica: stream: %v (reconnecting in ~%v)", err, wait)
		}
		if err == nil || r.Seq() > before {
			wait = r.opt.ReconnectWait
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jitter(wait)):
		}
		if err != nil {
			wait = min(2*wait, maxBackoff*r.opt.ReconnectWait)
		}
	}
}

// streamOnce opens one /events connection at the current cursor and
// applies frames until the stream ends. A 410 bootstraps from the
// snapshot and the same attempt opens /events again at the snapshot's
// sequence point at once; a 410 on that second request is an error
// like any other. A clean server-side close returns nil (reconnect); a
// sequence gap or decode failure returns an error (reconnect resumes at
// the applied cursor, so nothing is lost and duplicates are dropped by
// sequence comparison).
func (r *Replica) streamOnce(ctx context.Context) error {
	db := r.DB()
	resp, err := r.openEvents(ctx, db)
	if err == nil && resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err := r.bootstrap(ctx); err != nil {
			return err
		}
		db = r.DB()
		resp, err = r.openEvents(ctx, db)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return fmt.Errorf("replica: /events: unexpected status %s", resp.Status)
	}
	defer resp.Body.Close()

	head, _ := strconv.ParseUint(resp.Header.Get("X-Replication-Head"), 10, 64)
	r.mu.Lock()
	r.streaming = true
	if head > r.lastHead {
		r.lastHead = head
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.streaming = false
		r.disconnectedAt = time.Now()
		r.mu.Unlock()
	}()

	cur := db.EventSeq()
	dec := eventlog.NewDecoder(resp.Body)
	skipped := 0
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		// Frames the decoder skipped (unknown type or version) advanced
		// the primary's cursor without an apply here; account for them
		// before the contiguity check.
		if d := dec.Skipped() - skipped; d > 0 {
			cur += uint64(d)
			skipped = dec.Skipped()
		}
		if rec.Seq <= cur {
			continue // duplicate delivery across a reconnect
		}
		if rec.Seq != cur+1 {
			return fmt.Errorf("replica: sequence gap: got %d after %d", rec.Seq, cur)
		}
		db.ApplyEvent(rec.Event)
		cur = rec.Seq
	}
}

// openEvents requests the event stream after db's cursor.
func (r *Replica) openEvents(ctx context.Context, db *platform.DB) (*http.Response, error) {
	// A seeded replica store got its entities from a snapshot (New's
	// construction path or FromCheckpoint), so a since of 0 already
	// covers the primary's seed: say so, or a seeded-but-idle primary
	// would answer 410 and force a bootstrap ping-pong.
	u := fmt.Sprintf("%s/events?since=%d", r.primary, db.EventSeq())
	if db.Seeded() {
		u += "&boot=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return r.client.Do(req)
}

// bootstrap rebuilds the replica from the primary's snapshot: fetch
// the checkpoint, build a fresh store from it, swap it in (Root's
// handler with it), wipe and restart local persistence at the
// snapshot's sequence point, and hand the new store to OnState. The
// old store keeps serving reads until the swap.
func (r *Replica) bootstrap(ctx context.Context) error {
	r.logf("replica: bootstrapping from snapshot")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("replica: /snapshot: unexpected status %s", resp.Status)
	}
	cp, err := eventlog.ReadSnapshot(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: decode snapshot: %w", err)
	}
	db := platform.FromCheckpoint(cp)

	// Swap the store in before rebuilding persistence: reads move to
	// the fresh state immediately, and a crash mid-rebootstrap just
	// re-bootstraps (the wiped directory restores to nothing).
	r.mu.Lock()
	oldPers, bind := r.pers, r.bind
	r.db = db
	r.pers = nil
	if cp.Seq > r.lastHead {
		r.lastHead = cp.Seq
	}
	r.mu.Unlock()
	if bind != nil {
		bind(db)
	}
	if oldPers != nil {
		oldPers.Close()
	}
	if err := r.fs.RemoveAll(r.dir); err != nil {
		return err
	}
	pers, err := eventlog.StartPersister(db, r.dir, r.persistOpts())
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.pers = pers
	r.mu.Unlock()
	if r.opt.OnState != nil {
		r.opt.OnState(db)
	}
	r.logf("replica: bootstrapped at seq %d", cp.Seq)
	return nil
}
