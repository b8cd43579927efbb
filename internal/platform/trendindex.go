package platform

import (
	"sort"
	"sync"

	"dissenter/internal/ids"
	"dissenter/internal/rankheap"
)

// The Gab Trends ranking, write-maintained. The trends page lists the
// most-commented URLs for the requesting session's view (the
// NSFW/offensive shadow overlay hides comments from non-opted-in
// viewers, so four distinct rankings exist — one per view). Computing
// a ranking by scanning every URL and counting every comment is
// O(store) per render; under the paper's §3.2 moving-target condition
// — comments streaming in while readers hammer the portal, each post
// invalidating every cached trends view — that full scan runs on every
// miss. This index makes a trends render O(TrendLimit) regardless of
// store size:
//
//   - Per URL, four counters track comments by visibility class
//     (plain / NSFW-only / offensive-only / both), sharded like every
//     other store index and bumped in O(1) by AddComment. Any view's
//     visible count is a sum of the classes its settings expose.
//   - Per view, a bounded rankheap.TopK keeps the TrendLimit
//     best-ranked URLs under one short mutex, ordered by the paper's
//     tie-break: visible count descending, then FirstSeen descending
//     (newest first), then URL string ascending for determinism.
//
// Comments are append-only, so visible counts are monotone — exactly
// the regime where a bounded top-K stays exact (see rankheap): a URL
// evicted from a view's top list can only re-enter by gaining a
// comment, and every gained comment re-offers it. Rank updates for one
// URL may arrive out of order under write concurrency; updateView
// keeps the maximum, and the insert carrying the final counter value
// always lands, so the structure converges to the full-scan ranking
// the moment writes quiesce (the oracle equivalence test pins this).
//
// This was the template the net-vote leaderboard (voteindex.go) grew
// from; it swaps the bounded structure for rankheap.Exact because its
// scores are not monotone. Both consume the same event stream
// (events.go): one order structure per ranking, writes O(1)-ish,
// reads O(page).

// TrendLimit is how many URLs a trends rendering lists.
const TrendLimit = 50

// TrendEntry is one ranked URL: the immutable record plus its visible
// comment count in the view the ranking was asked for.
type TrendEntry struct {
	URL   *CommentURL
	Count int
}

// Comment visibility classes, indexed by (NSFW bit, Offensive<<1 bit).
const (
	classPlain     = 0
	classNSFW      = 1
	classOffensive = 2
	classBoth      = 3
)

// classCounts is one URL's comment census by visibility class.
type classCounts [4]int

// commentClass buckets a comment by its shadow flags.
func commentClass(c *Comment) int {
	cls := classPlain
	if c.NSFW {
		cls |= classNSFW
	}
	if c.Offensive {
		cls |= classOffensive
	}
	return cls
}

// viewMask encodes session settings the same way: bit 0 = show NSFW,
// bit 1 = show offensive. A class is visible in a view iff the class's
// flags are a subset of the view's (cls &^ view == 0).
func viewMask(showNSFW, showOffensive bool) int {
	v := 0
	if showNSFW {
		v |= classNSFW
	}
	if showOffensive {
		v |= classOffensive
	}
	return v
}

// Visible reports whether a session with these view settings is shown
// c: the one definition of comment visibility, behind the trends
// counts, the page views and the single-comment page alike.
func Visible(c *Comment, showNSFW, showOffensive bool) bool {
	return commentClass(c)&^viewMask(showNSFW, showOffensive) == 0
}

// visibleCount sums the classes a view exposes.
func visibleCount(cc classCounts, view int) int {
	n := cc[classPlain]
	for cls := 1; cls < len(cc); cls++ {
		if cls&^view == 0 {
			n += cc[cls]
		}
	}
	return n
}

// betterTrend is the ranking order: count descending, FirstSeen
// descending among ties, URL string ascending as the final
// deterministic tie-break. URLs are unique, so this is a strict total
// order.
func betterTrend(a, b TrendEntry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	if !a.URL.FirstSeen.Equal(b.URL.FirstSeen) {
		return a.URL.FirstSeen.After(b.URL.FirstSeen)
	}
	return a.URL.URL < b.URL.URL
}

// trendIndex is the write-maintained ranking state hanging off a DB.
type trendIndex struct {
	counts *shardedMap[ids.ObjectID, classCounts]
	views  [4]struct {
		mu  sync.Mutex
		top *rankheap.TopK[ids.ObjectID, TrendEntry]
	}
}

func newTrendIndex() *trendIndex {
	ix := &trendIndex{
		counts: newShardedMap[ids.ObjectID, classCounts](hashObjectID, 0),
	}
	for v := range ix.views {
		ix.views[v].top = rankheap.New[ids.ObjectID, TrendEntry](TrendLimit, betterTrend)
	}
	return ix
}

// Apply implements View (events.go): comment inserts bump the ranking,
// URL registrations backfill it. Votes, follows, and user inserts do
// not move a trends ranking.
func (ix *trendIndex) Apply(db *DB, ev Event) {
	switch e := ev.(type) {
	case CommentAdded:
		ix.addComment(db, e.Comment)
	case URLSubmitted:
		ix.registerURL(e.URL)
	}
}

// addComment folds one inserted comment into the counters and every
// view ranking it is visible in. The URL record is resolved AFTER the
// counter bump: if the lookup still comes back nil, the URL was not
// registered at a moment after the bump, so a later SubmitURL's
// registerURL backfill is guaranteed to observe the bumped counter
// (both sides serialize on the counts shard lock) — one of the two
// always offers the URL, with no ordering required between AddComment
// and SubmitURL.
func (ix *trendIndex) addComment(db *DB, c *Comment) {
	cls := commentClass(c)
	var after classCounts
	ix.counts.update(c.URLID, func(cc classCounts) classCounts {
		cc[cls]++
		after = cc
		return cc
	})
	cu := db.URLByID(c.URLID)
	if cu == nil {
		return
	}
	for v := range ix.views {
		if cls&^v != 0 {
			continue // invisible in this view: its count did not change
		}
		ix.updateView(v, TrendEntry{URL: cu, Count: visibleCount(after, v)})
	}
}

// registerURL offers a just-registered URL to the view rankings if
// comments referencing it were added before it existed (the HTTP
// paths always register first, but the store API does not require
// that order). Without the backfill such a URL would stay out of
// trends until its next comment, diverging from the full-scan oracle.
func (ix *trendIndex) registerURL(cu *CommentURL) {
	cc, ok := ix.counts.get(cu.ID)
	if !ok {
		return
	}
	for v := range ix.views {
		if n := visibleCount(cc, v); n > 0 {
			ix.updateView(v, TrendEntry{URL: cu, Count: n})
		}
	}
}

// updateView offers an entry to one view's bounded ranking. Counter
// updates for one URL serialize on its counts shard, but the ranking
// offers they produce can arrive here out of order; the stale-offer
// guard keeps the maximum, which under monotone counts is the current
// truth.
func (ix *trendIndex) updateView(v int, e TrendEntry) {
	vr := &ix.views[v]
	vr.mu.Lock()
	if cur, ok := vr.top.Get(e.URL.ID); !ok || cur.Count < e.Count {
		vr.top.Update(e.URL.ID, e)
	}
	vr.mu.Unlock()
}

// top returns one view's ranking, best first.
func (ix *trendIndex) top(view int) []TrendEntry {
	vr := &ix.views[view]
	vr.mu.Lock()
	out := vr.top.AppendTo(make([]TrendEntry, 0, TrendLimit))
	vr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return betterTrend(out[i], out[j]) })
	return out
}

// Rebuild implements View: it derives the counters and rankings from
// the store's comment index — count every comment's class, then offer
// each commented URL to each view once. Called by RegisterView on a
// quiesced store (New, or a replica before it starts streaming); a
// second Rebuild on a quiesced store is a no-op because the offers
// keep the maximum.
func (ix *trendIndex) Rebuild(db *DB) {
	byURL := make(map[ids.ObjectID]classCounts)
	db.RangeComments(func(c *Comment) bool {
		cc := byURL[c.URLID]
		cc[commentClass(c)]++
		byURL[c.URLID] = cc
		return true
	})
	for id, cc := range byURL {
		ix.counts.set(id, cc)
		cu, _ := db.urlByID.get(id)
		if cu == nil {
			continue
		}
		for v := range ix.views {
			if n := visibleCount(cc, v); n > 0 {
				ix.updateView(v, TrendEntry{URL: cu, Count: n})
			}
		}
	}
}

// TopTrends returns the most-commented URLs visible to a session with
// the given shadow-overlay settings — at most TrendLimit entries, best
// first: count descending, FirstSeen descending among ties, then URL.
// Served from the write-maintained index in O(TrendLimit); the store
// is never scanned. The returned slice is freshly allocated; the
// records it points at are the store's immutable entities.
func (db *DB) TopTrends(showNSFW, showOffensive bool) []TrendEntry {
	return db.trends.top(viewMask(showNSFW, showOffensive))
}
