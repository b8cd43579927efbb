package replica

import (
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	"dissenter/internal/eventlog"
	"dissenter/internal/httpguard"
	"dissenter/internal/platform"
)

// Publisher serves a store's replication surface: the resumable event
// stream and the bootstrap snapshot. Mount it under any prefix; it
// routes on the final path element.
type Publisher struct {
	DB *platform.DB
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// streamWriteTimeout bounds each batch write on the event stream. The
// stream is long-lived, so the publisher bumps the connection's write
// deadline per batch — a server-wide write timeout would kill healthy
// streams, while no deadline at all lets one stuck client pin a
// goroutine forever.
const streamWriteTimeout = 30 * time.Second

func (p *Publisher) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// ServeHTTP routes <mount>/events and <mount>/snapshot.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch path.Base(strings.TrimSuffix(r.URL.Path, "/")) {
	case "events":
		p.serveEvents(w, r)
	case "snapshot":
		p.serveSnapshot(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveEvents streams codec frames for every event after ?since=N and
// then stays open, flushing each new batch as the store dispatches it.
// The response never ends on its own: the client closes it, the
// stream dies with the connection, or the serving process begins its
// drain (httpguard.StreamContext). 410 Gone means the requested tail
// cannot be served and the client must bootstrap from /snapshot.
func (p *Publisher) serveEvents(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = v
	}
	db := p.DB
	// boot=1 marks a client whose since=0 reflects a bootstrapped
	// snapshot of this store's seed, not an empty store — without it,
	// a replica of a seeded-but-idle primary would 410 forever.
	boot := r.URL.Query().Get("boot") == "1"
	// Three unservable shapes, one answer: bootstrap. A compacted
	// prefix is gone; a seeded store's construction-time entities were
	// never events, so streaming "from 0" would silently omit them; a
	// since past our head means the client knows a history we lost.
	if since < db.EventBase() || (since == 0 && db.Seeded() && !boot) || since > db.EventSeq() {
		w.Header().Set("X-Snapshot-Required", "1")
		http.Error(w, "requested tail unavailable: bootstrap from snapshot", http.StatusGone)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Per-batch write deadlines. SetWriteDeadline may be unsupported
	// (test recorders); then writes just run without one.
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replication-Since", strconv.FormatUint(since, 10))
	w.Header().Set("X-Replication-Head", strconv.FormatUint(db.EventSeq(), 10))
	rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	w.WriteHeader(http.StatusOK)
	fl.Flush() // commit the status line so the client can start decoding

	ctx, cancel := httpguard.StreamContext(r)
	defer cancel()
	cur := since
	var buf []byte
	for {
		evs, ok := db.EventsSince(cur)
		if !ok {
			// Compacted underneath the stream (a slow client lost the
			// race with rotation). Ending the response makes the client
			// reconnect, see 410, and bootstrap.
			p.logf("replica: stream at %d compacted away, dropping client", cur)
			return
		}
		if len(evs) > 0 {
			buf = buf[:0]
			var err error
			for i, ev := range evs {
				buf, err = eventlog.AppendRecord(buf, eventlog.Record{Seq: cur + 1 + uint64(i), Event: ev})
				if err != nil {
					p.logf("replica: encode event %d: %v", cur+1+uint64(i), err)
					return
				}
			}
			rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := w.Write(buf); err != nil {
				return // client went away
			}
			fl.Flush()
			cur += uint64(len(evs))
		}
		if !db.AwaitEvents(cur, ctx.Done()) {
			return
		}
	}
}

// serveSnapshot streams a fresh consistent checkpoint in the eventlog
// snapshot format, entity by entity — the response is never held in
// memory whole. The X-Snapshot-Seq header names the cut's sequence
// point (also embedded in the payload).
func (p *Publisher) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	cp := p.DB.Checkpoint()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Snapshot-Seq", strconv.FormatUint(cp.Seq, 10))
	if _, err := eventlog.WriteSnapshot(w, cp); err != nil {
		p.logf("replica: snapshot write: %v", err)
	}
}
