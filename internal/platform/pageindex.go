package platform

import (
	"html"
	"sync"
	"sync/atomic"

	"dissenter/internal/ids"
)

// The discussion fragment view, write-maintained like the rankings but
// materializing *page content* instead of an ordering. Dissenter's
// workload is adversarial for a per-URL page (a few viral URLs absorb
// most reads AND most writes, Figs. 4–5): every posted comment touches
// the cached page its readers are hitting, and a re-render that walks
// and re-escapes thousands of comments per write is O(page). This view
// is the derived state that keeps that WRITE O(delta): per rendered
// URL, a urlPage keeps the per-session-view comment streams — each the
// concatenation, in creation (ID) order, of the pre-escaped rows
// visible under that view — plus the visibility-class counters that
// derive every view's visible-comment count (the class/mask scheme of
// trendindex.go). A CommentAdded escapes the one new row and appends
// it to each materialized stream it is visible in; dissenterweb's
// coherence view then swaps the grown snapshot into the cached page.
//
// It is not a render cache. Rendered output has exactly one cache,
// internal/respcache, which holds the composed bytes; nothing here
// memoizes a row or a listing so that a second render would be cheaper.
// Home pages keep no derived state at all: HomeURLs is one pass over
// the author's comment snapshot, paid once per response-cache fill.
//
// The state is LAZY twice over. Nothing is materialized at
// construction and nothing is maintained for pages that have never
// been rendered: the first CommentStream call for a URL builds its
// page from the sorted base index inside the pages shard write lock,
// and from then on the event stream (events.go) maintains it. And a
// page pins only the views that differ: the build escapes every row
// once into the show-everything stream (which the other three are
// subsets of), a view that hides no row of the page IS that stream —
// the paper labels 0.6% of comments NSFW and 0.5% offensive, so that is
// almost every view of almost every page — and a view that does hide
// one is filtered out of it, a copy and no escaping, the first time a
// session with those settings reads the page. A page costs one copy of
// its HTML, plus one per view read that hides a row, and a post appends
// to as many streams. The handshake is sound under write concurrency: a
// comment's base-index insert happens-before its event dispatch, so an
// apply either observes the materialized page (and folds the comment
// in) or the builder's index snapshot already contains the comment —
// never neither.
//
// Ordering: streams list comments in ID order, matching CommentsOnURL.
// Events for one URL can arrive out of ID order under write
// concurrency (IDs are minted before the insert races); the fast path
// appends only when the new comment sorts after everything already
// folded in, and any out-of-order arrival rebuilds the page from the
// sorted base index. The oracle tests pin streams byte-identical to a
// full scan once writes quiesce.

// AppendCommentRow appends the standard comment-row markup — the hot
// inner fragment of the discussion and single-comment pages — to dst
// and returns the extended slice. This is the ONE definition of the
// row shape: the streams below and dissenterweb's single-comment page
// both use it, so stream-assembled pages stay byte-identical to ad-hoc
// renders.
func AppendCommentRow(dst []byte, class string, c *Comment, withParent bool) []byte {
	dst = append(dst, `<div class="`...)
	dst = append(dst, class...)
	dst = append(dst, `" data-comment-id="`...)
	dst = append(dst, c.ID.String()...)
	dst = append(dst, `" data-author-id="`...)
	dst = append(dst, c.AuthorID.String()...)
	if withParent {
		dst = append(dst, `" data-parent-id="`...)
		if !c.ParentID.IsZero() {
			dst = append(dst, c.ParentID.String()...)
		}
	}
	dst = append(dst, "\">\n<p class=\"comment-text\">"...)
	dst = append(dst, html.EscapeString(c.Text)...)
	dst = append(dst, "</p>\n</div>\n"...)
	return dst
}

// rowOverhead is what AppendCommentRow writes around the text of a
// "comment" row with an empty parent attribute: the markup and two IDs.
var rowOverhead = len(AppendCommentRow(nil, "comment", &Comment{}, true))

// rowSize is the size of c's row when nothing in its text needs
// escaping. rebuildLocked sizes a stream with it.
func rowSize(c *Comment) int {
	n := rowOverhead + len(c.Text)
	if !c.ParentID.IsZero() {
		n += 2 * len(c.ParentID) // in hex
	}
	return n
}

// maxMaterializedPages bounds the lazily materialized state. A page
// holds one concatenated copy of its rows, and one more per view read
// that hides any of them, so a crawl that touches EVERY page of a huge
// corpus would otherwise pin the corpus' HTML forever. Pages are
// rebuildable from the base indexes, so the bound is a wholesale reset:
// crossing it drops the map and lets the hot set re-materialize. The
// cap sits far above the response cache's hot set (4096 entries), so
// steady-state crawls of a bounded hot set never reset.
const maxMaterializedPages = 16 << 10

// pageIndex is the fragment view hanging off a DB: the materialized
// per-URL page states. An absent entry means "never rendered", and
// Apply skips it in O(1).
type pageIndex struct {
	pages  *shardedMap[ids.ObjectID, *urlPage]
	nPages atomic.Int64
}

func newPageIndex() *pageIndex {
	return &pageIndex{pages: newShardedMap[ids.ObjectID, *urlPage](hashObjectID, 0)}
}

// Apply implements View (events.go). Only comment inserts move page
// content; votes render from the live tally and URL/user registrations
// resolve lazily at render time.
func (ix *pageIndex) Apply(db *DB, ev Event) {
	if e, ok := ev.(CommentAdded); ok {
		if p, ok := ix.pages.get(e.Comment.URLID); ok {
			p.add(db, e.Comment)
		}
	}
}

// Rebuild implements View. The view is lazy — every materialized page
// is rebuilt from the base indexes on demand — so rebuilding means
// dropping whatever was materialized and letting the hot set
// re-materialize against the current store.
func (ix *pageIndex) Rebuild(db *DB) {
	ix.pages.reset()
	ix.nPages.Store(0)
}

// page returns the URL's materialized page state, building it from the
// sorted comment index on first use (inside the pages shard write
// lock; see the handshake note above).
func (ix *pageIndex) page(db *DB, urlID ids.ObjectID) *urlPage {
	if p, ok := ix.pages.get(urlID); ok {
		return p
	}
	p, created := ix.pages.getOrCreate(urlID, func() *urlPage {
		np := &urlPage{}
		np.rebuildLocked(db, urlID)
		return np
	})
	// Past the bound, drop the whole materialized set. The page just
	// built stays valid for this caller — it is a consistent snapshot —
	// and the hot set re-materializes on demand.
	if created && ix.nPages.Add(1) > maxMaterializedPages {
		ix.pages.reset()
		ix.nPages.Store(0)
	}
	return p
}

// allRows is the view mask that shows every class: its stream holds
// every row of the page and is the one the others are filtered from.
const allRows = classNSFW | classOffensive

// urlPage is one materialized discussion page: the view streams and
// the class counters they are counted by, under one short mutex.
type urlPage struct {
	mu     sync.Mutex
	counts classCounts
	// lastID is the largest comment ID folded into the streams; n is
	// how many comments that is. A comment sorting at or before lastID
	// (an out-of-order arrival, or one a rebuild already swept in)
	// triggers a rebuild instead of an append.
	lastID ids.ObjectID
	n      int
	// views[v] is the ID-ordered concatenation of the rows visible
	// under view mask v, or nil while no reader has asked for v or v
	// hides no row (viewLocked then answers with views[allRows]).
	// views[allRows] always exists; rowEnd[i] is where row i ends in it
	// and rowClass[i] its visibility class, which is all viewLocked
	// needs to cut another view out of it. Streams are append-only
	// between rebuilds; readers snapshot with the capacity clipped to
	// the length, so an append into spare capacity never races a held
	// snapshot (the same discipline as the store's entity slices).
	views    [4][]byte
	rowEnd   []int
	rowClass []uint8
}

// add folds one inserted comment into the page, called from Apply with
// the base indexes already reflecting the insert. The row is escaped
// once, outside the page lock, and appended to every materialized view
// showing it.
func (p *urlPage) add(db *DB, c *Comment) {
	var scratch [512]byte
	row := AppendCommentRow(scratch[:0], "comment", c, true)
	cls := commentClass(c)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n > 0 && !p.lastID.Before(c.ID) {
		p.rebuildLocked(db, c.URLID)
		return
	}
	p.counts[cls]++
	p.lastID = c.ID
	p.n++
	for v := range p.views {
		if p.views[v] != nil && cls&^v == 0 {
			p.views[v] = append(p.views[v], row...)
		}
	}
	p.rowEnd = append(p.rowEnd, len(p.views[allRows]))
	p.rowClass = append(p.rowClass, uint8(cls))
}

// rebuildLocked recomputes the whole page state from the sorted
// per-URL comment index, escaping each row once into the
// show-everything stream. The other views are dropped and come back,
// filtered from the new stream, when next read. Callers hold p.mu,
// except the materializing constructor, whose page is not yet shared.
func (p *urlPage) rebuildLocked(db *DB, urlID ids.ObjectID) {
	cs, _ := db.commentsByURL.get(urlID)
	var counts classCounts
	var lastID ids.ObjectID
	size := 0
	for _, c := range cs {
		size += rowSize(c)
	}
	all := make([]byte, 0, size) // non-nil: materialized, however empty; escaped text still grows it
	rowEnd := make([]int, 0, len(cs))
	rowClass := make([]uint8, 0, len(cs))
	for _, c := range cs {
		all = AppendCommentRow(all, "comment", c, true)
		cls := commentClass(c)
		counts[cls]++
		rowEnd = append(rowEnd, len(all))
		rowClass = append(rowClass, uint8(cls))
		lastID = c.ID
	}
	p.counts, p.lastID, p.n = counts, lastID, len(cs)
	p.views = [4][]byte{allRows: all}
	p.rowEnd, p.rowClass = rowEnd, rowClass
}

// viewLocked returns view v's stream. While v hides no row of the page
// that is the show-everything stream itself, the same array. The first
// read after a row v hides cuts v's own stream out of it: the rows whose
// class v exposes, copied in order (a new array, so a reader holding the
// old snapshot sees a non-extension and starts over, once). Callers
// hold p.mu.
func (p *urlPage) viewLocked(v int) []byte {
	if p.views[v] != nil {
		return p.views[v]
	}
	all := p.views[allRows]
	if visibleCount(p.counts, v) == p.n {
		return all
	}
	out := make([]byte, 0, len(all)) // what v hides is its room to grow
	start := 0
	for i, end := range p.rowEnd {
		if int(p.rowClass[i])&^v == 0 {
			out = append(out, all[start:end]...)
		}
		start = end
	}
	p.views[v] = out
	return out
}

// CommentStream returns the URL's rendered comment stream for a
// session with the given shadow-overlay settings — the ID-ordered
// concatenation of the pre-escaped rows of every comment the view
// exposes — together with that view's visible-comment count. Both come
// from the same snapshot under the page's mutex, so the count always
// equals the number of rows in the stream. The returned slice is a
// stable snapshot (capacity clipped); callers must not modify it.
// First call for a URL materializes its page state and first call for
// a view cuts that view out of it; subsequent writes maintain both in
// O(row).
func (db *DB) CommentStream(urlID ids.ObjectID, showNSFW, showOffensive bool) (stream []byte, visible int) {
	v := viewMask(showNSFW, showOffensive)
	p := db.pages.page(db, urlID)
	p.mu.Lock()
	s := p.viewLocked(v)
	n := visibleCount(p.counts, v)
	p.mu.Unlock()
	return s[:len(s):len(s)], n
}

// HomeURLs returns the distinct registered URLs on which the author
// has at least one comment visible to a session with the given
// shadow-overlay settings, in first-comment order — the listing a
// Dissenter home page renders. It is one pass over the author's
// comment snapshot: no state is kept between calls, because the
// response cache holds the rendered page and a posted comment
// invalidates it. URL records are resolved at call time, so a comment
// posted before its URL registered surfaces as soon as the
// registration lands.
func (db *DB) HomeURLs(author ids.ObjectID, showNSFW, showOffensive bool) []*CommentURL {
	v := viewMask(showNSFW, showOffensive)
	cs, _ := db.commentsByAuthor.get(author)
	var order []ids.ObjectID
	shown := make(map[ids.ObjectID]bool) // URL -> the view exposes one of the author's comments there
	for _, c := range cs {
		was, seen := shown[c.URLID]
		if !seen {
			order = append(order, c.URLID)
		}
		shown[c.URLID] = was || commentClass(c)&^v == 0
	}
	out := make([]*CommentURL, 0, len(order))
	for _, id := range order {
		if !shown[id] {
			continue
		}
		if cu := db.URLByID(id); cu != nil {
			out = append(out, cu)
		}
	}
	return out
}
