// Package dissentercrawl implements the Dissenter-side crawl of §3.1–3.2:
// response-size probing of user home pages, home-page harvesting of
// commented URLs, comment-page mirroring, hidden commentAuthor metadata
// extraction, and the differential authenticated re-spider that uncovers
// the NSFW/"offensive" shadow overlay. The Campaign type in campaign.go
// ties these together with the Gab crawler into the full measurement
// pipeline producing a corpus.Dataset.
package dissentercrawl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dissenter/internal/crawlkit"
	"dissenter/internal/htmlx"
)

// SizeThreshold is the response-size cutoff separating real Dissenter
// home pages (>= 10 kB) from the ~150-byte not-found page (§3.1).
const SizeThreshold = 10_000

// Crawler fetches and parses Dissenter web pages, optionally with an
// authenticated session cookie.
type Crawler struct {
	base    string
	fetcher *crawlkit.Fetcher
}

// Option configures a Crawler.
type Option func(*options)

type options struct {
	session string
}

// WithSession attaches a session cookie (the authenticated re-spider).
func WithSession(token string) Option {
	return func(o *options) { o.session = token }
}

// New builds a Crawler for the Dissenter web app at base.
func New(base string, httpClient *http.Client, opts ...Option) *Crawler {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	fopts := []crawlkit.FetcherOption{crawlkit.WithRetries(4, 50*time.Millisecond)}
	if o.session != "" {
		fopts = append(fopts, crawlkit.WithCookie(&http.Cookie{Name: "session", Value: o.session}))
	}
	return &Crawler{base: base, fetcher: crawlkit.NewFetcher(httpClient, fopts...)}
}

// ProbeUsername reports whether the username has a Dissenter account,
// judged by response size alone — the paper's side channel, independent
// of status codes.
func (c *Crawler) ProbeUsername(ctx context.Context, username string) (bool, error) {
	res, err := c.fetcher.Get(ctx, c.base+"/user/"+url.PathEscape(username))
	if err != nil {
		return false, err
	}
	return res.Size >= SizeThreshold, nil
}

// UserPage is a parsed Dissenter home page.
type UserPage struct {
	AuthorID    string
	Username    string
	DisplayName string
	Bio         string
	URLs        []string // every URL the user has commented on
}

// FetchUserPage retrieves and parses a home page. Unknown users return
// an error.
func (c *Crawler) FetchUserPage(ctx context.Context, username string) (UserPage, error) {
	res, err := c.fetcher.Get(ctx, c.base+"/user/"+url.PathEscape(username))
	if err != nil {
		return UserPage{}, err
	}
	if res.Status != http.StatusOK || res.Size < SizeThreshold {
		return UserPage{}, fmt.Errorf("dissentercrawl: no home page for %q", username)
	}
	return ParseUserPage(string(res.Body))
}

// ParseUserPage extracts the profile fields and commented-URL listing.
func ParseUserPage(page string) (UserPage, error) {
	var up UserPage
	var ok bool
	up.AuthorID, ok = htmlx.Attr(page, "data-author-id")
	if !ok {
		return up, fmt.Errorf("dissentercrawl: home page lacks author-id")
	}
	if h1 := htmlx.FindTags(page, "h1"); len(h1) > 0 {
		up.Username = strings.TrimPrefix(h1[0].Text, "@")
	}
	if h2 := htmlx.FindTags(page, "h2"); len(h2) > 0 {
		up.DisplayName = h2[0].Text
	}
	for _, p := range htmlx.FindTags(page, "p") {
		if strings.Contains(p.Raw, `class="bio"`) {
			up.Bio = p.Text
			break
		}
	}
	for _, li := range htmlx.FindTags(page, "li") {
		if !strings.Contains(li.Raw, "commented-url") {
			continue
		}
		if a := htmlx.FindTags(li.Text, "a"); len(a) > 0 {
			up.URLs = append(up.URLs, a[0].Text)
		}
	}
	return up, nil
}

// CommentRec is one comment as observed on a comment page.
type CommentRec struct {
	ID       string
	AuthorID string
	ParentID string
	Text     string
}

// Discussion is a parsed comment page for one URL.
type Discussion struct {
	URLID       string
	Title       string
	Description string
	Ups, Downs  int
	Comments    []CommentRec
	// New reports a URL Dissenter has never seen (empty invitation page).
	New bool
}

// FetchDiscussion retrieves and parses the comment page for rawurl.
func (c *Crawler) FetchDiscussion(ctx context.Context, rawurl string) (Discussion, error) {
	res, err := c.fetcher.Get(ctx, c.base+"/discussion?url="+url.QueryEscape(rawurl))
	if err != nil {
		return Discussion{}, err
	}
	if res.Status != http.StatusOK {
		return Discussion{}, fmt.Errorf("dissentercrawl: discussion %q: HTTP %d", rawurl, res.Status)
	}
	return ParseDiscussion(string(res.Body))
}

// ParseDiscussion extracts the page header and comment stream.
func ParseDiscussion(page string) (Discussion, error) {
	var d Discussion
	if strings.Contains(page, "No comments yet") {
		d.New = true
		return d, nil
	}
	var ok bool
	d.URLID, ok = htmlx.Attr(page, "data-commenturl-id")
	if !ok {
		return d, fmt.Errorf("dissentercrawl: discussion lacks commenturl-id")
	}
	if h1 := htmlx.FindTags(page, "h1"); len(h1) > 0 {
		d.Title = h1[0].Text
	}
	for _, p := range htmlx.FindTags(page, "p") {
		if strings.Contains(p.Raw, "pagedescription") {
			d.Description = p.Text
			break
		}
	}
	for _, span := range htmlx.FindTags(page, "span") {
		if up, ok := htmlx.Attr(span.Raw, "data-up"); ok {
			d.Ups, _ = strconv.Atoi(up)
			if down, ok := htmlx.Attr(span.Raw, "data-down"); ok {
				d.Downs, _ = strconv.Atoi(down)
			}
		}
	}
	for _, div := range htmlx.FindTags(page, "div") {
		cid, ok := htmlx.Attr(div.Raw, "data-comment-id")
		if !ok {
			continue // the discussion header div
		}
		rec := CommentRec{ID: cid}
		rec.AuthorID, _ = htmlx.Attr(div.Raw, "data-author-id")
		rec.ParentID, _ = htmlx.Attr(div.Raw, "data-parent-id")
		if ps := htmlx.FindTags(div.Text, "p"); len(ps) > 0 {
			rec.Text = ps[0].Text
		}
		d.Comments = append(d.Comments, rec)
	}
	return d, nil
}

// PostComment submits a comment through the live write path
// (POST /discussion/comment) and returns the minted comment-id. The
// crawler must carry a posting session (WithSession for a token whose
// username resolves to a Dissenter account). parentID may be empty for
// a top-level comment; nsfw and offensive set the shadow labels. This
// is what the live-growth scenario's background poster uses to recreate
// the paper's moving-target condition (§3.2): comments appearing while
// the measurement campaign is mid-crawl.
func (c *Crawler) PostComment(ctx context.Context, rawurl, text, parentID string, nsfw, offensive bool) (string, error) {
	form := url.Values{"url": {rawurl}, "text": {text}}
	if parentID != "" {
		form.Set("parent", parentID)
	}
	if nsfw {
		form.Set("nsfw", "1")
	}
	if offensive {
		form.Set("offensive", "1")
	}
	res, err := c.fetcher.PostForm(ctx, c.base+"/discussion/comment", form)
	if err != nil {
		return "", err
	}
	if res.Status != http.StatusOK {
		return "", fmt.Errorf("dissentercrawl: post comment on %q: HTTP %d: %s", rawurl, res.Status, strings.TrimSpace(string(res.Body)))
	}
	id, ok := htmlx.Attr(string(res.Body), "data-comment-id")
	if !ok {
		return "", fmt.Errorf("dissentercrawl: post comment on %q: response lacks comment-id", rawurl)
	}
	return id, nil
}

// HiddenMeta is the commentAuthor payload mined from a single-comment
// page (§3.2): per-user metadata unavailable anywhere else.
type HiddenMeta struct {
	Username    string          `json:"username"`
	Language    string          `json:"language"`
	Permissions map[string]bool `json:"permissions"`
	ViewFilters map[string]bool `json:"viewFilters"`
}

// FetchCommentMeta retrieves /comment/<id> and extracts the hidden
// metadata. found is false when the page exists but carries no blob.
func (c *Crawler) FetchCommentMeta(ctx context.Context, commentID string) (HiddenMeta, bool, error) {
	res, err := c.fetcher.Get(ctx, c.base+"/comment/"+commentID)
	if err != nil {
		return HiddenMeta{}, false, err
	}
	if res.Status != http.StatusOK {
		return HiddenMeta{}, false, nil
	}
	return ParseCommentMeta(string(res.Body))
}

// ParseCommentMeta extracts the commented-out commentAuthor variable.
func ParseCommentMeta(page string) (HiddenMeta, bool, error) {
	blob, ok := htmlx.CommentedOutJS(page, "commentAuthor")
	if !ok {
		return HiddenMeta{}, false, nil
	}
	var meta HiddenMeta
	if err := json.Unmarshal([]byte(blob), &meta); err != nil {
		return HiddenMeta{}, false, fmt.Errorf("dissentercrawl: decode commentAuthor: %w", err)
	}
	return meta, true, nil
}
