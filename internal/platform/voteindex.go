package platform

import (
	"sort"
	"sync"

	"dissenter/internal/ids"
	"dissenter/internal/rankheap"
)

// The net-vote leaderboard, write-maintained. Figure 5 orders
// Dissenter URLs by net votes (ups minus downs) — the ranking the
// paper uses to show that never-voted URLs are the most toxic — and
// the simulator serves it at GET /leaderboard. Computing that ordering
// by scanning every URL and its tally is O(store) per render; this
// view keeps it current on every write instead, so a cache-miss
// leaderboard render is O(LeaderLimit) regardless of store size.
//
// Unlike comment counts, net votes are NOT monotone: a downvote moves
// a URL down the ranking, so the bounded-top-K exactness argument the
// trend index leans on fails here (an evicted URL could become the
// rightful member again purely because a CURRENT member was
// downvoted, with no event on the evicted URL to re-offer it). The
// view therefore uses rankheap.Exact — every URL stays resident, split
// into the elite top-LeaderLimit and a remembered overflow — which
// keeps reads O(page) and updates O(log #URLs) while staying exact
// under decrease-key.
//
// Concurrency: the view keeps no tally of its own — it reads the
// store's sharded vote index, whose shard lock stamps every update
// with a per-URL sequence number (voteDelta.seq), and ranking offers
// carry the stamp of the tally snapshot they were computed from. The
// offer guard keeps the highest stamp, so offers arriving out of order
// under write concurrency converge on the last serialized tally — the
// monotone-maximum trick the trend index uses does not work for
// scores that can move down, the sequence stamp is its non-monotone
// replacement. The oracle test pins exact agreement with a full scan
// once writes quiesce.

// LeaderLimit is how many URLs a leaderboard rendering lists.
const LeaderLimit = 50

// LeaderEntry is one ranked URL with its current vote totals (the
// generated baseline plus serve-time votes, as DB.Votes reports them).
type LeaderEntry struct {
	URL        *CommentURL
	Ups, Downs int
}

// Net returns ups minus downs, the quantity Figure 5 ranks by.
func (e LeaderEntry) Net() int { return e.Ups - e.Downs }

// betterLeader is the leaderboard order: net votes descending, then
// FirstSeen descending (newest first) among ties, then URL string
// ascending. URLs are unique, so this is a strict total order.
func betterLeader(a, b LeaderEntry) bool {
	if an, bn := a.Net(), b.Net(); an != bn {
		return an > bn
	}
	if !a.URL.FirstSeen.Equal(b.URL.FirstSeen) {
		return a.URL.FirstSeen.After(b.URL.FirstSeen)
	}
	return a.URL.URL < b.URL.URL
}

// leaderVal is what the order structure stores: the entry plus the
// sequence stamp of the tally it was computed from.
type leaderVal struct {
	entry LeaderEntry
	seq   uint64
}

// voteIndex is the write-maintained leaderboard state hanging off a DB.
type voteIndex struct {
	mu   sync.Mutex
	rank *rankheap.Exact[ids.ObjectID, leaderVal]
}

func newVoteIndex() *voteIndex {
	return &voteIndex{
		rank: rankheap.NewExact[ids.ObjectID, leaderVal](LeaderLimit,
			func(a, b leaderVal) bool { return betterLeader(a.entry, b.entry) }),
	}
}

// Apply implements View (events.go). applyVote commits the
// tally before dispatching, so the snapshot read here carries at least
// this event's update (possibly later ones — a higher stamp, which the
// offer guard prefers anyway). If the URL record resolves nil, the URL
// was not registered at a moment after the tally landed, so the later
// URLSubmitted's backfill — whose tally read serializes against the
// update on the votes shard lock — is guaranteed to observe it. One of
// the two always offers the final tally. (Live votes always resolve,
// because Vote validates registration; the nil path is real during
// replay, where a VoteCast can precede the URLSubmitted it raced with
// in log order.)
func (ix *voteIndex) Apply(db *DB, ev Event) {
	switch e := ev.(type) {
	case VoteCast:
		t, _ := db.votes.get(e.URLID)
		if cu := db.URLByID(e.URLID); cu != nil {
			ix.offer(cu, t)
		}
	case URLSubmitted:
		// Every registered URL is ranked from the moment it exists —
		// zero- and negative-net URLs are part of Figure 5's ordering —
		// carrying any tally that accumulated before registration.
		t, _ := db.votes.get(e.URL.ID)
		ix.offer(e.URL, t)
	}
}

// offer publishes one URL's tally snapshot to the order structure.
// Stale offers — a lower sequence stamp than what the structure
// already holds — are dropped; the stamp order is the per-URL
// serialization the votes shard lock produced.
func (ix *voteIndex) offer(cu *CommentURL, t voteDelta) {
	v := leaderVal{
		entry: LeaderEntry{URL: cu, Ups: cu.Ups + t.ups, Downs: cu.Downs + t.downs},
		seq:   t.seq,
	}
	ix.mu.Lock()
	if cur, ok := ix.rank.Get(cu.ID); !ok || cur.seq < v.seq {
		ix.rank.Update(cu.ID, v)
	}
	ix.mu.Unlock()
}

// top returns the leaderboard, best first.
func (ix *voteIndex) top() []LeaderEntry {
	ix.mu.Lock()
	vals := ix.rank.AppendTopTo(make([]leaderVal, 0, LeaderLimit))
	ix.mu.Unlock()
	out := make([]LeaderEntry, len(vals))
	for i, v := range vals {
		out[i] = v.entry
	}
	sort.Slice(out, func(i, j int) bool { return betterLeader(out[i], out[j]) })
	return out
}

// Rebuild implements View: every registered URL is offered at its
// current tally (baseline plus any serve-time delta, carrying the
// delta's sequence stamp so the offer guard orders it against live
// Apply offers). Called by RegisterView on a quiesced store.
func (ix *voteIndex) Rebuild(db *DB) {
	db.RangeURLs(func(cu *CommentURL) bool {
		t, _ := db.votes.get(cu.ID)
		ix.offer(cu, t)
		return true
	})
}

// Leaderboard returns the LeaderLimit URLs with the highest net votes,
// best first — Figure 5's ordering: net votes descending, FirstSeen
// descending among ties, then URL. Served from the write-maintained
// index in O(LeaderLimit); the store is never scanned. The returned
// slice is freshly allocated; the records it points at are the store's
// immutable entities.
func (db *DB) Leaderboard() []LeaderEntry {
	return db.leaders.top()
}
