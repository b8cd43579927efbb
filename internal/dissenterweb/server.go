// Package dissenterweb simulates the Dissenter web application surface
// the paper reverse engineers and crawls (§2, §3.2): user home pages
// (whose response size betrays account existence), per-URL comment pages
// (with per-URL rate limiting), single-comment pages carrying hidden
// user metadata in commented-out JavaScript, and the NSFW/"offensive"
// shadow overlay that is only rendered for authenticated sessions that
// opted in.
//
// The server reads the sharded platform store concurrently and fronts
// its hot endpoints — comment listings, user profiles, trends — with an
// LRU+TTL response cache keyed by endpoint, subject, and session view
// (so shadow-overlay opt-ins never leak into another session's cached
// page). Cache misses coalesce through respcache.GetOrFillRev, so a
// stampede of concurrent requests on one cold hot page runs a single
// render. Discussion pages cache STRUCTURED entries — the stable
// pre-escaped head and comment stream separated from the mutable
// vote/count span — assembled from the store's write-maintained
// fragment view (platform.DB.CommentStream): a vote patches two
// integers in place, a posted comment swaps in the view's grown stream
// snapshot, and neither discards kilobytes of escaped HTML. The
// remaining mutable surfaces are invalidated by exact key, every
// session view of the affected subject, and an invalidation discards
// any render it raced with. All of that coherence runs in one place, a
// platform.View the server attaches to its store (coherence.go):
// handlers only write, and any write to the store —
// from a handler, a replication stream, or a direct call — reaches the
// cache through the event stream before the write returns; freshness
// does not lean on the TTL. URL-keyed surfaces normalize the address
// with urlkit.Normalize first, so trivially different encodings of one
// address share a record, a cache subject, and a rate-limit bucket.
//
// On top of the cache sits a thin response layer (respond.go): every
// cached entry lazily carries a COMPOSED form — final body bytes, a
// write-time gzip variant, and a strong ETag minted from the entry's
// respcache generation stamp — so a cache hit negotiates
// Accept-Encoding, answers a matching If-None-Match with a bodyless
// 304, and otherwise writes precomposed bytes, with zero allocations
// end to end (session lookup, query extraction, and the cache-key
// build are all allocation-free; BenchmarkDiscussionHit pins the
// budget at exactly 0). Because every fill and every in-place patch
// advances the generation, a validator issued before any mutation can
// never produce a 304 — revalidation is exactly as fresh as a full
// response. A patched generation inherits its predecessor's compressed
// comment stream (respBox.prev), so composing it deflates the rows the
// write appended, not the page.
package dissenterweb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/httpguard"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/respcache"
	"dissenter/internal/urlkit"
)

// Session is the view configuration of an authenticated account, the
// moral equivalent of the test accounts the authors registered with the
// NSFW and offensive settings enabled separately.
type Session struct {
	Username      string
	ShowNSFW      bool
	ShowOffensive bool
}

// Server serves the simulated web app over a platform.DB. Construct with
// NewServer; it implements http.Handler.
type Server struct {
	db    *platform.DB
	idgen *ids.Generator
	cache *respcache.Cache[page]

	cacheSize int // response-cache capacity and TTL NewServer builds with
	cacheTTL  time.Duration

	urlLimit  int // requests per URL per window (10/min observed)
	urlWindow time.Duration

	// readOnly refuses the mutating endpoints (ReadOnly): set on
	// servers fronting a replica store, which only the replication
	// stream writes.
	readOnly bool

	// health, when set (WithHealth), serves /healthz and /readyz from
	// this handler, so a standalone web mount carries its own
	// operational surface.
	health *httpguard.Health

	// Every request consults the session table and (on rate-limited
	// endpoints) the per-URL hit counters; they used to share one mutex,
	// which made an unrelated write — a RegisterSession, a rate-limit
	// sweep — stall every concurrent reader. They are now independent:
	// sessions is a read-mostly table under its own RWMutex, and the hit
	// counters have their own mutex whose O(n) expiry sweep runs on a
	// background goroutine (see rateLimit), never on a request's
	// critical path.
	sessMu   sync.RWMutex
	sessions map[string]Session

	rlMu sync.Mutex
	hits map[string]*hitWindow
	// lastSweep (unix nanos) is when expired rate-limit windows were
	// last evicted; sweeps keep hits bounded by the distinct URLs seen
	// in roughly two windows, not the whole crawl. sweeping guards
	// against piling up more than one sweep goroutine.
	lastSweep atomic.Int64
	sweeping  atomic.Bool

	// trendFrags memoizes the pre-escaped link+title remainder of a
	// trends/leaderboard row. It is the one render memo under the
	// response cache: every posted comment drops every trends view, so
	// those pages MISS at the write rate, and the Makefile pins a miss
	// at 64 allocations: 14 measured with the memo, 114 without, and 64
	// (no headroom) with rows written unmemoized straight into the
	// buffer — url.QueryEscape alone allocates once per row.
	trendFrags fragMemo
}

// fragMemo memoizes immutable per-record HTML fragments keyed by
// ObjectID, with a wholesale reset if churn ever grows it far past the
// hot set (maxTrendFrags) — so it can never become a slow leak.
type fragMemo struct {
	m sync.Map // ids.ObjectID -> string
	n atomic.Int64
}

// maxTrendFrags holds one small string per URL that ever ranked; the
// bound only caps pathological churn.
const maxTrendFrags = 64 * platform.TrendLimit

func (f *fragMemo) get(id ids.ObjectID, build func() string) string {
	if v, ok := f.m.Load(id); ok {
		return v.(string)
	}
	frag := build()
	if f.n.Add(1) > maxTrendFrags {
		f.m.Clear()
		f.n.Store(1)
	}
	f.m.Store(id, frag)
	return frag
}

type hitWindow struct {
	start time.Time
	n     int
}

// Option configures the Server.
type Option func(*Server)

// WithURLRateLimit overrides the observed 10 requests/minute per-URL
// limit (limit <= 0 disables).
func WithURLRateLimit(limit int, window time.Duration) Option {
	return func(s *Server) {
		s.urlLimit = limit
		s.urlWindow = window
	}
}

// Default response-cache shape: enough entries for the hot set of a
// crawl, with a short TTL as the invalidation backstop.
const (
	DefaultCacheSize = 4096
	DefaultCacheTTL  = 30 * time.Second
)

// WithResponseCache overrides the response cache's capacity and TTL,
// both positive (respcache.New): a Server always has a cache.
func WithResponseCache(size int, ttl time.Duration) Option {
	return func(s *Server) { s.cacheSize, s.cacheTTL = size, ttl }
}

// WithHealth routes /healthz (liveness, always 200) and /readyz
// (traffic steering: 503 while any registered check fails or a drain
// is underway) through this server, sharing the process's Health.
func WithHealth(h *httpguard.Health) Option {
	return func(s *Server) {
		s.health = h
	}
}

// ReadOnly makes the server refuse its mutating endpoints
// (/discussion/begin, /discussion/vote, /discussion/comment) with
// 403 Forbidden — a read replica's configuration: the primary is where
// writes belong. Read paths are unaffected.
func ReadOnly() Option {
	return func(s *Server) { s.readOnly = true }
}

// serverSeq distinguishes the ID-generator seeds of servers created in
// one process: two servers sharing a DB must never mint colliding
// commenturl-ids for same-second submissions.
var serverSeq atomic.Uint64

// NewServer builds the web app simulator over db and attaches the
// server's cache-coherence view to db (coherence.go) — for the life of
// db, so build one Server per store rather than one per request.
func NewServer(db *platform.DB, opts ...Option) *Server {
	s := &Server{
		db:        db,
		idgen:     ids.NewGenerator(0xD15C0551 ^ serverSeq.Add(1)<<32 ^ uint64(time.Now().UnixNano())),
		cacheSize: DefaultCacheSize,
		cacheTTL:  DefaultCacheTTL,
		urlLimit:  10,
		urlWindow: time.Minute,
		sessions:  map[string]Session{},
		hits:      map[string]*hitWindow{},
	}
	for _, o := range opts {
		o(s)
	}
	s.cache = respcache.New[page](s.cacheSize, s.cacheTTL)
	// No window lapses before one has passed; a sweep started by the
	// first request could otherwise swap the map and restart counts.
	s.lastSweep.Store(time.Now().UnixNano())
	db.RegisterView(s.EventInvalidator())
	return s
}

// RegisterSession issues a session token with the given view settings —
// the simulator-side analogue of creating an account and flipping its
// settings (§3.2). The token is sent as a "session" cookie.
func (s *Server) RegisterSession(token string, sess Session) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessions[token] = sess
}

// RegisterProbeSessions issues the two differential-crawl sessions,
// "nsfw-probe" (NSFW view enabled) and "off-probe" (offensive view
// enabled). Every process serving one corpus registers them through
// here, so a crawl can hit primary and replicas interchangeably.
func (s *Server) RegisterProbeSessions() {
	s.RegisterSession("nsfw-probe", Session{ShowNSFW: true})
	s.RegisterSession("off-probe", Session{ShowOffensive: true})
}

func (s *Server) session(r *http.Request) Session {
	// sessionToken (respond.go) rather than r.Cookie: same cookie, none
	// of Cookie's per-call parse allocations on the serving hot path.
	tok := sessionToken(r)
	if tok == "" {
		return Session{}
	}
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	return s.sessions[tok]
}

// --- response cache helpers --------------------------------------------

// page is one response-cache entry. Simple endpoints (home, trends,
// leaderboard) cache a fully rendered body in simple. Discussion pages
// are structured — head (the stable prefix through the page
// description), the mutable vote/count span as three integers, and the
// view's pre-escaped comment stream — so a write can patch the span or
// swap the stream without discarding the kilobytes that did not
// change. A non-empty head marks a structured entry.
// Both shapes additionally carry their content generation's identity
// (rev, stamped by the cache) and a shared respBox that lazily holds
// the composed response — final bytes, write-time gzip variant, ETag —
// so cache hits shovel pre-built bytes instead of rendering (see
// respond.go).
type page struct {
	simple string

	head              string
	ups, downs, count int
	stream            []byte

	rev  respcache.Rev
	resp *respBox
}

// pageFoot closes a structured discussion page after its comment
// stream. Immutable.
var pageFoot = []byte("</body></html>\n")

// voteSpanMax bounds appendVoteSpan's output: 94 bytes of markup and
// three integers of at most 20 digits.
const voteSpanMax = 160

// appendVoteSpan renders the mutable vote/count span of a structured
// discussion page into dst.
func appendVoteSpan(dst []byte, ups, downs, count int) []byte {
	dst = append(dst, `<span class="votes" data-up="`...)
	dst = strconv.AppendInt(dst, int64(ups), 10)
	dst = append(dst, `" data-down="`...)
	dst = strconv.AppendInt(dst, int64(downs), 10)
	dst = append(dst, "\"></span>\n<span class=\"commentcount\">"...)
	dst = strconv.AppendInt(dst, int64(count), 10)
	return append(dst, "</span>\n</div>\n"...)
}

// serveCached is the read path every cached endpoint shares. key is
// the entry's exact cache key, built by the caller into a stack buffer
// so the hit — a GetBytes probe answered through respond — allocates
// nothing. On a miss, GetOrFillRev coalesces concurrent requests onto
// one render and stamps the generation; the fill composes eagerly, so
// the response bytes and gzip variant are built once per generation,
// not by the first hit that happens to want them. GetBytes leaves miss
// accounting to the GetOrFillRev fall-through.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key []byte, render func() page) {
	if p, ok := s.cache.GetBytes(key); ok {
		s.respond(w, r, p)
		return
	}
	p, _ := s.cache.GetOrFillRev(string(key), func(rev respcache.Rev) page {
		p := render()
		p.rev = rev
		p.resp = &respBox{}
		p.resp.composed(&p)
		return p
	})
	s.respond(w, r, p)
}

// CacheStats exposes the response cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses uint64) { return s.cache.Stats() }

// rateLimitEntries reports the number of live rate-limit windows; the
// eviction tests pin that it stays bounded.
func (s *Server) rateLimitEntries() int {
	s.rlMu.Lock()
	defer s.rlMu.Unlock()
	return len(s.hits)
}

// writeHTML sends a finished rendering. io.WriteString reaches the
// ResponseWriter's WriteString fast path without copying body through
// fmt's reflection machinery.
func writeHTML(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, body)
}

// bufPool recycles render buffers across requests: a page is built
// into a pooled bytes.Buffer whose backing array survives the request,
// so steady-state renders do zero growth reallocations. Buffers that
// ballooned (a giant page) are dropped rather than pinned forever.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 {
		bufPool.Put(b)
	}
}

// writeInt appends n to the page without the strconv.Itoa allocation.
func writeInt(b *bytes.Buffer, n int) {
	var scratch [20]byte
	b.Write(strconv.AppendInt(scratch[:0], int64(n), 10))
}

// Mounts lists the http.ServeMux patterns that cover every path
// ServeHTTP's switch routes — the route table's one written copy. A
// process sharing its listener with other handlers (cmd/
// dissenter-platform) mounts the Server under exactly these, so a new
// route is one case below plus one pattern here.
var Mounts = []string{
	"/user/", "/discussion", "/comment/", "/trends", "/trends/",
	"/leaderboard", "/leaderboard/",
	"/discussion/begin", "/discussion/vote", "/discussion/comment",
}

// ServeHTTP routes the app's pages.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.health != nil && r.URL.Path == "/healthz":
		s.health.Healthz(w, r)
	case s.health != nil && r.URL.Path == "/readyz":
		s.health.Readyz(w, r)
	case strings.HasPrefix(r.URL.Path, "/user/"):
		s.handleHome(w, r, strings.TrimPrefix(r.URL.Path, "/user/"))
	case r.URL.Path == "/discussion":
		s.handleDiscussion(w, r)
	case strings.HasPrefix(r.URL.Path, "/comment/"):
		s.handleComment(w, r, strings.TrimPrefix(r.URL.Path, "/comment/"))
	case r.URL.Path == "/trends" || r.URL.Path == "/trends/":
		s.handleTrends(w, r)
	case r.URL.Path == "/leaderboard" || r.URL.Path == "/leaderboard/":
		s.handleLeaderboard(w, r)
	case r.URL.Path == "/discussion/begin":
		if s.refuseWrite(w) {
			return
		}
		s.handleBegin(w, r)
	case r.URL.Path == "/discussion/vote":
		if s.refuseWrite(w) {
			return
		}
		s.handleVote(w, r)
	case r.URL.Path == "/discussion/comment":
		if s.refuseWrite(w) {
			return
		}
		s.handlePostComment(w, r)
	default:
		http.NotFound(w, r)
	}
}

// refuseWrite answers a mutating request on a read-only server.
func (s *Server) refuseWrite(w http.ResponseWriter) bool {
	if !s.readOnly {
		return false
	}
	http.Error(w, "read-only replica: write on the primary", http.StatusForbidden)
	return true
}

// rateLimit applies the per-URL request budget. The counter is keyed by
// the *target* URL, so a crawler that never revisits a page never trips
// it — exactly the loophole §3.2 reports. Cached responses still count:
// the real platform throttled by request, not by render cost.
//
// The request path only touches its own key under the limiter mutex;
// the O(n) expiry sweep that keeps the map bounded is amortized onto a
// background goroutine at most once per window, so no request ever
// pays for it. The window key is passed as prefix+rest and only
// concatenated past the disabled check, so an unlimited server (the
// zero-allocation hit path) never builds the string.
func (s *Server) rateLimit(w http.ResponseWriter, prefix, rest string) bool {
	if s.urlLimit <= 0 {
		return true
	}
	key := prefix + rest
	now := time.Now()
	if now.UnixNano()-s.lastSweep.Load() >= int64(s.urlWindow) {
		s.sweepRateLimits(now)
	}
	s.rlMu.Lock()
	hw := s.hits[key]
	if hw == nil || now.Sub(hw.start) >= s.urlWindow {
		hw = &hitWindow{start: now}
		s.hits[key] = hw
	}
	hw.n++
	n := hw.n
	s.rlMu.Unlock()
	if n > s.urlLimit {
		w.Header().Set("Retry-After", "60")
		http.Error(w, "rate limited", http.StatusTooManyRequests)
		return false
	}
	return true
}

// sweepRateLimits drops every rate-limit window that has lapsed, off
// the request critical path. Without the sweep a crawler visiting
// distinct URLs grows the map forever; with it the map holds only URLs
// requested within the last window or two. At most one sweep goroutine
// runs at a time, at most once per window.
//
// The sweep never holds the limiter lock for the O(n) scan: it swaps
// in a fresh map in O(1), filters the old map unlocked, and re-inserts
// the still-live windows in O(live). A request that lands between the
// swap and the merge starts a fresh window for its key; the merge
// keeps whichever window counted more hits, so the budget stays
// approximately enforced through the handover instead of requests
// stalling behind a million-entry scan.
func (s *Server) sweepRateLimits(now time.Time) {
	if !s.sweeping.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.sweeping.Store(false)
		s.rlMu.Lock()
		old := s.hits
		s.hits = make(map[string]*hitWindow, len(old)/2+1)
		s.rlMu.Unlock()
		live := make(map[string]*hitWindow)
		for k, win := range old {
			if now.Sub(win.start) < s.urlWindow {
				live[k] = win
			}
		}
		s.rlMu.Lock()
		for k, win := range live {
			if cur, ok := s.hits[k]; !ok || cur.n < win.n {
				s.hits[k] = win
			}
		}
		s.rlMu.Unlock()
		s.lastSweep.Store(now.UnixNano())
	}()
}

// handleHome renders a Dissenter user home page. Missing accounts get a
// ~150-byte not-found page; real accounts get a >= 10 kB page (the size
// side channel of §3.1). The commented-URL history comes from the
// store's HomeURLs pass, paid once per response-cache fill.
func (s *Server) handleHome(w http.ResponseWriter, r *http.Request, username string) {
	u := s.db.UserByUsername(username)
	if u == nil || !u.HasDissenter {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `<!DOCTYPE html><html><head><title>Dissenter</title></head><body><p>Sorry, that page doesn't exist.</p></body></html>`)
		return
	}
	sess := s.session(r)
	var kb [128]byte
	s.serveCached(w, r, appendSubjectKey(kb[:0], SubjectHome, username, sess), func() page {
		return page{simple: s.homeBody(u, sess)}
	})
}

// homeBody assembles a home page around the author's HomeURLs listing.
func (s *Server) homeBody(u *platform.User, sess Session) string {
	b := getBuf()
	defer putBuf(b)
	b.WriteString("<!DOCTYPE html><html><head><title>Dissenter</title></head><body>\n")
	b.WriteString(`<div class="profile" data-author-id="`)
	b.WriteString(u.AuthorID.String())
	b.WriteString("\">\n<h1 class=\"username\">@")
	b.WriteString(html.EscapeString(u.Username))
	b.WriteString("</h1>\n<h2 class=\"displayname\">")
	b.WriteString(html.EscapeString(u.DisplayName))
	b.WriteString("</h2>\n<p class=\"bio\">")
	b.WriteString(html.EscapeString(u.Bio))
	b.WriteString("</p>\n</div>\n<ul class=\"history\">\n")
	for _, cu := range s.db.HomeURLs(u.AuthorID, sess.ShowNSFW, sess.ShowOffensive) {
		b.WriteString(`<li class="commented-url"><a href="/discussion?url=`)
		b.WriteString(url.QueryEscape(cu.URL))
		b.WriteString(`">`)
		b.WriteString(html.EscapeString(cu.URL))
		b.WriteString("</a></li>\n")
	}
	b.WriteString("</ul>\n")
	b.WriteString(appBundle)
	b.WriteString("</body></html>\n")
	return b.String()
}

// handleDiscussion renders the comment page for ?url=. A miss on a
// page the store has materialized costs O(1), not O(page): the
// visible-comment count comes from the fragment view's counters (no
// counting pass) and the comment stream is a snapshot of the view's
// pre-escaped concatenation (no render pass).
func (s *Server) handleDiscussion(w http.ResponseWriter, r *http.Request) {
	// queryValue + the Normalize already-normal fast path keep the
	// common ?url=https://... extraction allocation-free; escaped
	// queries decode exactly as r.URL.Query().Get would.
	raw := urlkit.Normalize(queryValue(r.URL.RawQuery, "url"))
	if raw == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	if !s.rateLimit(w, "discussion:", raw) {
		return
	}
	cu := s.db.URLByString(raw)
	if cu == nil {
		// A URL nobody has entered yet: an empty comment page inviting
		// the first comment (§2.1). Never cached — the key is
		// visitor-controlled, so a scan of novel URLs would evict the
		// whole hot set with copies of this constant page, and the
		// render is cheaper than the lookup that missed.
		writeHTML(w, "<!DOCTYPE html><html><head><title>Dissenter Discussion</title></head><body>\n"+
			`<div class="discussion new"><p>No comments yet. Be the first to dissent!</p></div>`+"\n"+
			"</body></html>\n")
		return
	}
	sess := s.session(r)
	var kb [512]byte
	s.serveCached(w, r, appendSubjectKey(kb[:0], SubjectDiscussion, raw, sess), func() page {
		return s.discussionPage(cu, sess.ShowNSFW, sess.ShowOffensive)
	})
}

// discussionPage fills one structured discussion entry from the
// fragment view. Note: no flag in the stream distinguishes
// NSFW/offensive content — the crawler must infer labels
// differentially (§3.2).
func (s *Server) discussionPage(cu *platform.CommentURL, showNSFW, showOffensive bool) page {
	stream, count := s.db.CommentStream(cu.ID, showNSFW, showOffensive)
	ups, downs := s.db.Votes(cu.ID)
	return page{head: discussionHead(cu), ups: ups, downs: downs, count: count, stream: stream}
}

// discussionHead renders the stable prefix of a discussion page:
// everything up to the mutable vote/count span. Built once per fill; it
// then survives every in-place patch inside the structured entry.
func discussionHead(cu *platform.CommentURL) string {
	return "<!DOCTYPE html><html><head><title>Dissenter Discussion</title></head><body>\n" +
		`<div class="discussion" data-commenturl-id="` + cu.ID.String() +
		"\">\n<h1 class=\"pagetitle\">" + html.EscapeString(cu.Title) +
		"</h1>\n<p class=\"pagedescription\">" + html.EscapeString(cu.Description) + "</p>\n"
}

// handleComment renders the single-comment page, including the
// commented-out commentAuthor JavaScript variable with otherwise
// undiscoverable user metadata (§3.2).
func (s *Server) handleComment(w http.ResponseWriter, r *http.Request, cidStr string) {
	cid, err := ids.Parse(strings.Trim(cidStr, "/"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	c := s.db.CommentByID(cid)
	sess := s.session(r)
	if c == nil || !platform.Visible(c, sess.ShowNSFW, sess.ShowOffensive) {
		http.NotFound(w, r)
		return
	}
	author := s.db.UserByAuthorID(c.AuthorID)
	b := getBuf()
	defer putBuf(b)
	b.WriteString("<!DOCTYPE html><html><head><title>Dissenter Comment</title></head><body>\n")
	// The main row is the same markup the discussion page shows;
	// replies use the "reply" class (uncached page, cold path).
	b.Write(platform.AppendCommentRow(b.AvailableBuffer(), "comment", c, true))
	s.db.RangeCommentsOnURL(c.URLID, func(reply *platform.Comment) bool {
		if reply.ParentID == c.ID && platform.Visible(reply, sess.ShowNSFW, sess.ShowOffensive) {
			b.Write(platform.AppendCommentRow(b.AvailableBuffer(), "reply", reply, false))
		}
		return true
	})
	if author != nil {
		meta := hiddenMeta{
			Username:    author.Username,
			Language:    author.Language,
			Permissions: author.Flags,
			ViewFilters: author.Filters,
		}
		blob, err := json.Marshal(meta)
		if err == nil {
			b.WriteString("<script>\n")
			// The assignment is commented out — dead code shipped to every
			// visitor, invisible in the DOM, and full of metadata.
			b.WriteString("// var commentAuthor = ")
			b.Write(blob)
			b.WriteString(";\nvar commentView = {\"ready\": true};\n")
			b.WriteString("</script>\n")
		}
	}
	b.WriteString("</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(b.Bytes())
}

// hiddenMeta is the commentAuthor payload.
type hiddenMeta struct {
	Username    string               `json:"username"`
	Language    string               `json:"language"`
	Permissions platform.UserFlags   `json:"permissions"`
	ViewFilters platform.ViewFilters `json:"viewFilters"`
}

// appBundle is filler standing in for the web app's bundled JS/CSS; it is
// what puts real home pages over the 10 kB detection threshold.
var appBundle = func() string {
	var b strings.Builder
	b.WriteString("<script>/* dissenter app bundle */\n")
	for i := 0; i < 160; i++ {
		fmt.Fprintf(&b, "function module%04d(){return %d;} // padding padding padding\n", i, i)
	}
	b.WriteString("</script>\n")
	return b.String()
}()
