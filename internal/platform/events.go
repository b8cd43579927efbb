package platform

import (
	"fmt"

	"dissenter/internal/ids"
)

// The event-dispatch pipeline. Every runtime mutation of the store —
// user insertion, URL submission, comment posting, follow edges, votes
// — flows through one seam: the write method updates the base lookup
// indexes, then calls dispatch, which appends a typed Event to the
// store's sequence-numbered event log and fans it out to every
// registered View. Materialized views (the trends ranking, the
// net-vote leaderboard, the page-fragment view) therefore never
// hand-wire themselves into individual write methods; adding a view is
// implementing View and handing it to RegisterView — the one public
// seam event consumers attach through, in-process views and
// replication subscribers alike.
//
// The log is also the store's replication seam: every event carries an
// implicit 1-based sequence number (its position in dispatch order),
// EventsSince streams the suffix after any sequence point, and
// ApplyEvent replays a single event into another DB through the normal
// write paths — which re-dispatches into THAT store's views, so a
// replica's rankings and page fragments are maintained by the same
// code that maintains the primary's. Durability (internal/eventlog)
// and the HTTP stream (internal/replica) are built entirely on this
// surface.
//
// The log does not grow without bound: CompactLog drops a durable
// prefix once a snapshot covers it (eventlog.Persister does this after
// writing one), leaving EventBase() compacted events plus the retained
// tail. EventSeq keeps counting from the store's birth — head =
// snapshot base + tail.
//
// Ordering: the log records the interleaving the dispatchers won, not
// a global serialization of the shard locks, so under write
// concurrency an event can land in the log before a causally unrelated
// one it raced with. The write paths are built so that every such
// interleaving replays to the same end state: comment listings sort by
// ID, vote deltas commute, and the views backfill registrations that
// arrive after the writes referencing them (see trendIndex.Apply and
// voteIndex.Apply).

// Event is one runtime mutation of the store, as appended to the event
// log and fanned out to the registered views.
//
// Events are a versioned public contract: each concrete type has a
// stable wire name and a versioned binary encoding in
// internal/eventlog, so WAL files and replication streams survive
// schema growth. The compatibility rule: new fields are appended to a
// type's encoding and default to their zero value when absent, and
// decoders skip event types they do not know (counting them) instead
// of failing. See eventlog's package documentation for the format.
type Event interface {
	// applyTo replays the mutation into dst through the normal write
	// paths (re-indexing, re-dispatching). Replay skips Vote's
	// unknown-URL validation: the source store only logged votes for
	// URLs it had registered, but the log may order a VoteCast before
	// the URLSubmitted it raced with.
	applyTo(dst *DB)
}

// UserAdded records an AddUser.
type UserAdded struct{ User *User }

// URLSubmitted records the winning SubmitURL of a new address.
type URLSubmitted struct{ URL *CommentURL }

// CommentAdded records an AddComment.
type CommentAdded struct{ Comment *Comment }

// FollowAdded records an AddFollow edge.
type FollowAdded struct{ From, To ids.GabID }

// VoteCast records a validated Vote delta.
type VoteCast struct {
	URLID      ids.ObjectID
	Ups, Downs int
}

func (e UserAdded) applyTo(dst *DB)    { dst.AddUser(e.User) }
func (e URLSubmitted) applyTo(dst *DB) { dst.SubmitURL(e.URL) }
func (e CommentAdded) applyTo(dst *DB) { dst.AddComment(e.Comment) }
func (e FollowAdded) applyTo(dst *DB)  { dst.AddFollow(e.From, e.To) }
func (e VoteCast) applyTo(dst *DB)     { dst.applyVote(e.URLID, e.Ups, e.Downs) }

// ApplyEvent replays one event into the store through the normal write
// paths — re-indexing the base lookups and re-dispatching into this
// store's views and event log. It is the entry point replication
// consumers use: a replica applying a primary's stream through
// ApplyEvent advances its own sequence number in lockstep with the
// primary's, so the replica's log position IS its replication cursor.
func (db *DB) ApplyEvent(ev Event) { ev.applyTo(db) }

// View is a write-maintained materialized view hanging off a DB:
// dispatch hands it every event, synchronously, after the base indexes
// already reflect the mutation. This is the one public seam event
// consumers attach through — the three built-in views (trends,
// leaderboard, pages) register through it in New, and every
// dissenterweb.Server registers its response-cache coherence view
// through it when it is built.
type View interface {
	// Apply folds one event into the view. It must be safe for
	// concurrent use (views shard their counters and keep their order
	// structures under short mutexes) and must tolerate events arriving
	// in any order consistent with the per-entity shard serializations.
	Apply(db *DB, ev Event)
	// Rebuild (re)derives the view's state from the store's base
	// indexes — the snapshot/bootstrap hook. RegisterView calls it once
	// after registration so a late-attached view catches up on
	// everything that preceded it. Rebuild is called with no concurrent
	// Apply for this view unless the view documents otherwise; register
	// views before the store takes concurrent writes (New does, and so
	// does a replica before it starts streaming).
	Rebuild(db *DB)
}

// RegisterView attaches a view to the store's event pipeline and then
// calls v.Rebuild(db) to derive its state from everything already
// written. Registration-then-rebuild means an event dispatched between
// the two steps can reach the view through both paths; the built-in
// views tolerate that (offers keep the maximum / rebuilds read the
// base indexes), and so must any view registered on a store already
// taking writes.
//
// Registration is idempotent per view value: a view already attached
// (interface equality, so a view's dynamic type must be comparable —
// a pointer, or a struct of pointers) is left where it is and not
// rebuilt, so every event reaches it exactly once however many callers
// register it.
func (db *DB) RegisterView(v View) {
	db.eventMu.Lock()
	for _, have := range db.views {
		if have == v {
			db.eventMu.Unlock()
			return
		}
	}
	views := make([]View, len(db.views), len(db.views)+1)
	copy(views, db.views)
	db.views = append(views, v) // copy-on-write: dispatch snapshots db.views
	db.eventMu.Unlock()
	v.Rebuild(db)
}

// dispatch appends the event to the log, wakes any AwaitEvents
// waiters, and fans the event out to every registered view, in
// registration order and before the write method returns. It runs
// after the write method's base-index updates, so a view that drops or
// patches cached renderings (dissenterweb's, registered after the
// built-in views) never lets a reader re-render pre-write state.
func (db *DB) dispatch(ev Event) {
	db.eventMu.Lock()
	db.events = append(db.events, ev)
	views := db.views
	if len(db.waiters) > 0 {
		for _, ch := range db.waiters {
			close(ch)
		}
		db.waiters = nil
	}
	db.eventMu.Unlock()
	for _, v := range views {
		v.Apply(db, ev)
	}
}

// EventSeq returns the sequence number of the most recently dispatched
// event — 0 on a store that has never dispatched. Sequence numbers are
// 1-based positions in dispatch order and survive compaction: they
// keep counting from the store's birth (or, for a store built with
// FromCheckpoint, from the checkpoint's sequence point).
func (db *DB) EventSeq() uint64 {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	return db.eventBase + uint64(len(db.events))
}

// EventBase returns the compaction point: the number of leading events
// no longer resident in memory because a snapshot covers them
// (CompactLog). EventsSince(EventBase()) holds the tail after this
// point.
func (db *DB) EventBase() uint64 {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	return db.eventBase
}

// EventsSince returns the retained events after sequence point since
// (the event with sequence since+1 first), as a stable snapshot: like
// the Range accessors it pins the log's current length, and its
// capacity is clipped to that length, so a caller appending to it
// reallocates instead of racing dispatch for the live log's spare
// backing array. ok is false when the prefix through since has been compacted away
// (since < EventBase()), in which case the caller must restart from a
// snapshot — the replication stream returns 410 Gone for this.
func (db *DB) EventsSince(since uint64) (evs []Event, ok bool) {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	if since < db.eventBase {
		return nil, false
	}
	i := since - db.eventBase
	if i >= uint64(len(db.events)) {
		return nil, true
	}
	return db.events[i:len(db.events):len(db.events)], true
}

// AwaitEvents blocks until the log's head passes sequence point seq
// (EventSeq() > seq), returning true — or until done is closed,
// returning false. It is the poll-free edge the persister and the
// replication stream wait on.
func (db *DB) AwaitEvents(seq uint64, done <-chan struct{}) bool {
	for {
		db.eventMu.Lock()
		if db.eventBase+uint64(len(db.events)) > seq {
			db.eventMu.Unlock()
			return true
		}
		ch := make(chan struct{})
		db.waiters = append(db.waiters, ch)
		db.eventMu.Unlock()
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}

// CompactLog drops the log prefix through sequence point upTo,
// releasing its memory; EventBase() advances to upTo and only the
// tail stays resident. Callers must hold a durable snapshot at a
// sequence point >= upTo first (eventlog.Persister compacts only after
// fsyncing one) — the dropped events are unrecoverable from this store
// otherwise. Requests past the head are clamped. It returns the number
// of events dropped.
func (db *DB) CompactLog(upTo uint64) int {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	if head := db.eventBase + uint64(len(db.events)); upTo > head {
		upTo = head
	}
	if upTo <= db.eventBase {
		return 0
	}
	drop := int(upTo - db.eventBase)
	// Copy the tail so the dropped prefix's backing array is actually
	// released (a reslice would pin it) and future appends cannot race
	// snapshots still holding the old array.
	tail := make([]Event, len(db.events)-drop)
	copy(tail, db.events[drop:])
	db.events = tail
	db.eventBase = upTo
	return drop
}

// EventName returns ev's stable wire name: the identity events carry
// in the versioned binary encoding (internal/eventlog) and the
// replication stream.
func EventName(ev Event) string {
	switch ev.(type) {
	case UserAdded:
		return "user-added"
	case URLSubmitted:
		return "url-submitted"
	case CommentAdded:
		return "comment-added"
	case FollowAdded:
		return "follow-added"
	case VoteCast:
		return "vote-cast"
	default:
		return fmt.Sprintf("unknown(%T)", ev)
	}
}
