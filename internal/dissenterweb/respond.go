package dissenterweb

import (
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"dissenter/internal/respcache"
)

// The thin response layer for cached pages: cache hits are
// byte-shoveling, not rendering. Each cached generation carries a
// respBox that lazily publishes its composed form (identity bytes +
// write-time gzip variant + strong ETag, see respcache.Compose); a hit
// negotiates Accept-Encoding, answers If-None-Match revalidation with
// a bodyless 304, and writes headers by assigning pre-built []string
// values into the header map — zero allocations end to end. The
// helpers below (sessionToken, queryValue) exist because the stdlib
// conveniences they replace (Request.Cookie, URL.Query) allocate on
// every call, which is the difference between 0 and ~6 allocs per hit.

// Shared single-value header slices, assigned directly into http.Header
// maps on the hit path (Header.Set would allocate a []string per call).
// Immutable.
var (
	hdrVaryAE = []string{"Accept-Encoding"}
	hdrCTHTML = []string{"text/html; charset=utf-8"}
	hdrCEGzip = []string{"gzip"}
)

// respBox carries the lazily-published composed response of ONE
// content generation. The box pointer is shared between the cached
// entry and every page copy handed to readers, so whichever request
// composes first publishes for all. A write that patches the entry
// (refreshDiscussion via UpdateRev) swaps in a fresh box along with the
// new Rev under the shard lock — the generation changed, so the old
// composed bytes become unreachable from the cache atomically with the
// content change, and composing (gzip included) never runs under the
// lock.
type respBox struct {
	mu sync.Mutex
	c  atomic.Pointer[respcache.Composed]
	// prev is the compressed comment stream of the generation this one
	// patched, handed forward so composing deflates only the rows
	// appended since. It is the stream VALUE, never the previous box: a
	// run of patches nobody reads hands the same one along and retains
	// nothing else. Zero for a fresh fill, and when this generation's
	// stream snapshot does not extend the previous one. Immutable.
	prev respcache.Stream
}

// composed returns the generation's composed form, building it at most
// once. p is the caller's copy of the entry; it is the same generation
// as the box, because UpdateRev replaces box and parts under one shard
// lock acquisition. A structured page's parts — the head built here,
// the store's stream snapshot the entry already pins, the static foot —
// are what a large page's identity bytes are served from, so they must
// stay unmutated. TestSegmentedGzipOracle pins the identity bytes
// against a part-by-part reference rendering of the same page.
func (b *respBox) composed(p *page) *respcache.Composed {
	if c := b.c.Load(); c != nil {
		return c
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.c.Load(); c != nil {
		return c
	}
	var c *respcache.Composed
	if p.head == "" {
		c = respcache.Compose([]byte(p.simple), p.rev)
	} else {
		head := append(make([]byte, 0, len(p.head)+voteSpanMax), p.head...)
		head = appendVoteSpan(head, p.ups, p.downs, p.count)
		c = respcache.ComposeSegments(head, p.stream, pageFoot, b.prev, p.rev)
	}
	b.c.Store(c)
	return c
}

// stream is the compressed comment stream a patch of this generation
// hands to the next: its own once composed, else the one it inherited.
func (b *respBox) stream() respcache.Stream {
	if c := b.c.Load(); c != nil {
		return c.Stream
	}
	return b.prev
}

// respond serves one cache entry through the composed-response layer.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, p page) {
	c := p.resp.composed(&p)
	h := w.Header()
	h["Etag"] = c.ETagHdr
	h["Vary"] = hdrVaryAE
	if m := r.Header["If-None-Match"]; len(m) > 0 && etagMatch(m[0], c.ETag) {
		// The validator matches the currently cached generation — by the
		// Rev construction (respcache), a generation whose epoch was
		// invalidated or whose entry was patched can never produce this
		// equality, so a 304 is always safe here.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = hdrCTHTML
	if c.Gzip != nil && acceptsGzip(r) {
		h["Content-Encoding"] = hdrCEGzip
		h["Content-Length"] = c.GzipLenHdr
		w.Write(c.Gzip)
		return
	}
	h["Content-Length"] = c.BodyLenHdr
	// As with the gzip write above, a failed write is the client gone:
	// there is no one left to report it to.
	_ = c.WriteIdentity(w)
}

// etagMatch reports whether the If-None-Match header value matches the
// strong validator etag: a comma-separated list of entity-tags or the
// "*" wildcard. Weak validators (W/ prefix) never match — composed
// entries are byte-exact, so only strong comparison is sound. Operates
// on substrings only; never allocates.
func etagMatch(header, etag string) bool {
	for header != "" {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		var tok string
		if i := strings.IndexByte(header, ','); i >= 0 {
			tok, header = header[:i], header[i+1:]
		} else {
			tok, header = header, ""
		}
		tok = strings.TrimRight(tok, " \t")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request negotiates the gzip variant:
// the first gzip (or x-gzip, its RFC 9110 alias) coding on any
// Accept-Encoding line decides, and it is a refusal exactly when its
// weight is zero. Operates on substrings only; never allocates.
func acceptsGzip(r *http.Request) bool {
	for _, v := range r.Header["Accept-Encoding"] {
		for v != "" {
			var tok string
			tok, v, _ = strings.Cut(v, ",")
			coding, params, _ := strings.Cut(tok, ";")
			coding = strings.TrimSpace(coding)
			if strings.EqualFold(coding, "gzip") || strings.EqualFold(coding, "x-gzip") {
				return !zeroWeight(params)
			}
		}
	}
	return false
}

// zeroWeight reports whether params, the text after a coding's ";", is
// a q-value of zero in any legal spelling: OWS around it, "0", "0.",
// "0.0" … "0.000" (RFC 9110 §12.4.2).
func zeroWeight(params string) bool {
	q := strings.TrimSpace(params)
	if len(q) < 3 || (q[0] != 'q' && q[0] != 'Q') || q[1] != '=' {
		return false
	}
	q = strings.TrimPrefix(strings.TrimLeft(q[2:], "0"), ".")
	return strings.TrimLeft(q, "0") == ""
}

// sessionToken extracts the "session" cookie's value without
// Request.Cookie's per-call parse allocations. Tokens are issued by
// RegisterSession and sent back verbatim, so a substring scan of the
// Cookie header (with optional double-quote unwrapping, as Cookie
// performs) is exact.
func sessionToken(r *http.Request) string {
	for _, line := range r.Header["Cookie"] {
		for len(line) > 0 {
			var part string
			if i := strings.IndexByte(line, ';'); i >= 0 {
				part, line = line[:i], line[i+1:]
			} else {
				part, line = line, ""
			}
			part = strings.TrimLeft(part, " ")
			if strings.HasPrefix(part, "session=") {
				v := part[len("session="):]
				if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
					v = v[1 : len(v)-1]
				}
				return v
			}
		}
	}
	return ""
}

// queryValue returns the first value of name in rawQuery. Equivalent
// to r.URL.Query().Get(name) for well-formed queries, but it only
// allocates when the matched value actually contains an escape ('%'
// or '+'); the common already-normal ?url=https://... costs nothing.
// Malformed escapes fall back to the raw substring, which simply
// becomes a URL the store has never seen.
func queryValue(rawQuery, name string) string {
	for q := rawQuery; q != ""; {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 || pair[:eq] != name {
			continue
		}
		v := pair[eq+1:]
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			return v
		}
		if dec, err := url.QueryUnescape(v); err == nil {
			return dec
		}
		return v
	}
	return ""
}
