// Package youtube simulates the slice of YouTube the paper crawls in
// §3.3: pages whose useful metadata (video title, uploader, availability,
// comment-enabled state) lives inside large JavaScript blobs rather than
// in static HTML — which is precisely why Dissenter's own title/
// description mining fails on YouTube URLs and why the paper had to
// crawl the pages with a JS-capable browser. Our crawler (Crawler, in
// this package) extracts the same fields from the simulated JS blob.
package youtube

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Kind classifies a YouTube URL (§3.3): a single video, a user homepage,
// or a channel.
type Kind string

// The three content kinds.
const (
	KindVideo   Kind = "video"
	KindUser    Kind = "user"
	KindChannel Kind = "channel"
)

// Status is a video's availability (§4.2.2).
type Status string

// Availability states with the paper's removal taxonomy.
const (
	StatusActive      Status = "active"
	StatusUnavailable Status = "unavailable" // generic "Video Unavailable"
	StatusPrivate     Status = "private"
	StatusTerminated  Status = "terminated" // uploader account terminated
	StatusHateRemoved Status = "hate_removed"
)

// Video is the ground-truth metadata behind one YouTube URL.
type Video struct {
	URL              string
	Kind             Kind
	Title            string
	Owner            string // content-owner (uploader / channel name)
	Status           Status
	CommentsDisabled bool
}

// Site is the simulated YouTube deployment: a set of URLs with metadata,
// served over HTTP with the metadata embedded in JavaScript.
type Site struct {
	mu     sync.RWMutex
	videos map[string]Video // keyed by URL path+query (scheme-insensitive)
	// ownerTotals records the total number of videos each owner has on
	// the platform (commented-on ones are a subset); the per-owner
	// normalization of §4.2.2 needs it.
	ownerTotals map[string]int
}

// NewSite builds a Site from ground-truth videos and per-owner totals.
func NewSite(videos []Video, ownerTotals map[string]int) *Site {
	s := &Site{videos: make(map[string]Video, len(videos)), ownerTotals: ownerTotals}
	for _, v := range videos {
		s.videos[pathKey(v.URL)] = v
	}
	return s
}

// Mounts lists the http.ServeMux patterns that cover every path
// pathKey produces — the site's route table, written once. A process
// serving the site beside the Dissenter app mounts it under exactly
// these, which is why a user homepage is keyed /user-yt/ and not
// YouTube's own /user/: that prefix is Dissenter's profile route.
var Mounts = []string{"/watch", "/channel/", "/user-yt/"}

// pathKey canonicalizes a YouTube URL to its path+query so that
// https://www.youtube.com/watch?v=x, http://youtube.com/watch?v=x and
// https://youtu.be/x resolve consistently. The site's keys and the
// crawler's request paths both come from here, so they cannot disagree.
func pathKey(raw string) string {
	s := raw
	for _, prefix := range []string{"https://", "http://"} {
		s = strings.TrimPrefix(s, prefix)
	}
	for _, host := range []string{"www.youtube.com", "m.youtube.com", "youtube.com"} {
		if rest, ok := strings.CutPrefix(s, host); ok {
			if name, ok := strings.CutPrefix(rest, "/user/"); ok {
				return "/user-yt/" + name
			}
			return rest
		}
	}
	if rest, ok := strings.CutPrefix(s, "youtu.be/"); ok {
		return "/watch?v=" + rest
	}
	return s
}

// Lookup returns the metadata for a URL.
func (s *Site) Lookup(raw string) (Video, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.videos[pathKey(raw)]
	return v, ok
}

// OwnerTotal returns the total platform-wide video count for an owner.
func (s *Site) OwnerTotal(owner string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ownerTotals[owner]
}

// Len returns the number of known URLs.
func (s *Site) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.videos)
}

// ServeHTTP renders the page for any known URL. The interesting payload —
// title, owner, availability — is inside a JavaScript ytInitialData-style
// blob, matching the real page structure that defeats naive HTML mining.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Path
	if r.URL.RawQuery != "" {
		key += "?" + r.URL.RawQuery
	}
	s.mu.RLock()
	v, ok := s.videos[key]
	s.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, renderPage(v))
}

// renderPage produces HTML in which the static body is useless (title is
// just "/watch") and the real data hides in a script element.
func renderPage(v Video) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>/watch</title></head><body>\n")
	b.WriteString("<div id=\"player\"></div>\n")
	b.WriteString("<script>var ytInitialData = {")
	fmt.Fprintf(&b, "%q: %q, ", "pageKind", string(v.Kind))
	fmt.Fprintf(&b, "%q: %q, ", "videoTitle", v.Title)
	fmt.Fprintf(&b, "%q: %q, ", "ownerName", v.Owner)
	fmt.Fprintf(&b, "%q: %q, ", "playabilityStatus", string(v.Status))
	fmt.Fprintf(&b, "%q: %v", "commentsDisabled", v.CommentsDisabled)
	b.WriteString("};</script>\n")
	switch v.Status {
	case StatusActive:
		b.WriteString("<noscript>This page requires JavaScript.</noscript>\n")
	case StatusPrivate:
		b.WriteString("<div class=\"message\">This video is private.</div>\n")
	case StatusTerminated:
		b.WriteString("<div class=\"message\">This video is no longer available because the account associated with this video has been terminated.</div>\n")
	case StatusHateRemoved:
		b.WriteString("<div class=\"message\">This video has been removed for violating our policy on hate speech.</div>\n")
	default:
		b.WriteString("<div class=\"message\">Video unavailable.</div>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}
