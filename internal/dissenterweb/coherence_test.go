package dissenterweb

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// Coherence by construction: a Server learns of writes from its store's
// event stream, whoever made them. These tests write to the store
// WITHOUT going through the server under test — directly, or through a
// second server — on a plain (not ReadOnly) server nobody registered a
// view for, and require every cached page to be fresh on the very next
// GET, under a new validator.

// coherenceFixture is a small deterministic store: one poster, one
// lurker with a Dissenter account and no comments, and three URLs with
// one comment each, all at negative nets so a newly registered URL
// (net zero) leads the leaderboard.
func coherenceFixture() (db *platform.DB, lurker *platform.User, urls []*platform.CommentURL) {
	gen := ids.NewGenerator(0xC0DE)
	base := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	poster := &platform.User{GabID: 1, Username: "poster", HasDissenter: true, AuthorID: gen.NewAt(base)}
	lurker = &platform.User{GabID: 2, Username: "lurker", HasDissenter: true, AuthorID: gen.NewAt(base)}
	var comments []*platform.Comment
	for i := 0; i < 3; i++ {
		at := base.Add(time.Duration(i+1) * time.Hour)
		cu := &platform.CommentURL{
			ID: gen.NewAt(at), URL: fmt.Sprintf("https://coherence.example/%d", i),
			Downs: i + 1, FirstSeen: at,
		}
		urls = append(urls, cu)
		comments = append(comments, &platform.Comment{
			ID: gen.NewAt(at.Add(time.Minute)), URLID: cu.ID, AuthorID: poster.AuthorID,
			Text: "seed comment", CreatedAt: at.Add(time.Minute),
		})
	}
	return platform.New([]*platform.User{poster, lurker}, urls, comments, nil), lurker, urls
}

// warmPage is one cached page and the validator it was last served
// under.
type warmPage struct {
	t    *testing.T
	url  string
	etag string
}

func warm(t *testing.T, rawurl string) *warmPage {
	t.Helper()
	resp, _ := fetch(t, rawurl, "")
	p := &warmPage{t: t, url: rawurl, etag: resp.Header.Get("ETag")}
	if p.etag == "" {
		t.Fatalf("GET %s: no ETag", rawurl)
	}
	// The entry is resident: its own validator revalidates.
	if resp, _ := condFetch(t, rawurl, "", p.etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("GET %s with its own ETag = %d, want 304", rawurl, resp.StatusCode)
	}
	return p
}

// refreshed requires that the page changed under the reader: the
// pre-write validator gets a full 200 carrying want under a different
// ETag. It then adopts the new validator for the next round.
func (p *warmPage) refreshed(after, want string) {
	p.t.Helper()
	resp, body := condFetch(p.t, p.url, "", p.etag)
	if resp.StatusCode != http.StatusOK {
		p.t.Fatalf("after %s: GET %s with the pre-write ETag = %d, want 200", after, p.url, resp.StatusCode)
	}
	if !strings.Contains(body, want) {
		p.t.Fatalf("after %s: GET %s does not show %q", after, p.url, want)
	}
	etag := resp.Header.Get("ETag")
	if etag == p.etag {
		p.t.Fatalf("after %s: GET %s kept ETag %s across the write", after, p.url, etag)
	}
	p.etag = etag
}

// unchanged requires the opposite: the write is outside this page's
// subject, so its entry and validator survive.
func (p *warmPage) unchanged(after string) {
	p.t.Helper()
	if resp, _ := condFetch(p.t, p.url, "", p.etag); resp.StatusCode != http.StatusNotModified {
		p.t.Fatalf("after %s: GET %s = %d, want 304 (the write does not touch this page)", after, p.url, resp.StatusCode)
	}
}

func TestDirectStoreWritesReachEveryCachedPage(t *testing.T) {
	db, lurker, urls := coherenceFixture()
	srv := httptest.NewServer(NewServer(db, WithURLRateLimit(0, 0)))
	t.Cleanup(srv.Close)
	target := urls[0]

	disc := warm(t, srv.URL+"/discussion?url="+url.QueryEscape(target.URL))
	other := warm(t, srv.URL+"/discussion?url="+url.QueryEscape(urls[1].URL))
	home := warm(t, srv.URL+"/user/"+lurker.Username)
	trends := warm(t, srv.URL+"/trends")
	leaders := warm(t, srv.URL+"/leaderboard")

	now := time.Now().UTC()
	db.AddComment(&platform.Comment{
		ID: ids.NewGenerator(0xD1).NewAt(now), URLID: target.ID, AuthorID: lurker.AuthorID,
		Text: "a direct write lands", CreatedAt: now,
	})
	disc.refreshed("AddComment", "a direct write lands")
	home.refreshed("AddComment", url.QueryEscape(target.URL))
	trends.refreshed("AddComment", `data-comments="2"`)
	leaders.unchanged("AddComment")
	other.unchanged("AddComment")

	if !db.Vote(target.ID, 7, 0) {
		t.Fatal("vote refused")
	}
	disc.refreshed("Vote", `data-up="7"`)
	leaders.refreshed("Vote", `data-up="7"`)
	trends.unchanged("Vote")
	home.unchanged("Vote")

	const novel = "https://coherence.example/novel"
	if _, inserted := db.SubmitURL(&platform.CommentURL{
		ID: ids.NewGenerator(0xD2).NewAt(now), URL: novel, FirstSeen: now,
	}); !inserted {
		t.Fatal("novel URL not inserted")
	}
	leaders.refreshed("SubmitURL", url.QueryEscape(novel))
	disc.unchanged("SubmitURL")
}

// TestServersSharingAStoreSeeEachOthersWrites: two servers over one DB,
// each with its own cache. A write through either one's handlers must
// be visible on the other's very next read.
func TestServersSharingAStoreSeeEachOthersWrites(t *testing.T) {
	db, lurker, urls := coherenceFixture()
	target := urls[0]
	var srvs [2]*httptest.Server
	var discs, leaders [2]*warmPage
	for i := range srvs {
		s := NewServer(db, WithURLRateLimit(0, 0))
		s.RegisterSession("lurker", Session{Username: lurker.Username})
		srvs[i] = httptest.NewServer(s)
		t.Cleanup(srvs[i].Close)
		discs[i] = warm(t, srvs[i].URL+"/discussion?url="+url.QueryEscape(target.URL))
		leaders[i] = warm(t, srvs[i].URL+"/leaderboard")
	}

	mustPost(t, srvs[0], "lurker", url.Values{"url": {target.URL}, "text": {"posted through server 0"}})
	discs[0].refreshed("POST via 0", "posted through server 0")
	discs[1].refreshed("POST via 0", "posted through server 0")

	resp, _ := fetch(t, srvs[1].URL+"/discussion/vote?dir=up&url="+url.QueryEscape(target.URL), "")
	if resp.StatusCode != http.StatusOK { // the 302 was followed to the page
		t.Fatalf("vote via 1 = %d", resp.StatusCode)
	}
	for i := range srvs {
		discs[i].refreshed("vote via 1", `data-up="1"`)
		leaders[i].refreshed("vote via 1", `data-up="1"`)
	}
}

// TestReRegisteringTheInvalidatorIsANoOp: NewServer already attached
// the view EventInvalidator returns, so a caller that registers it
// again (as every replica wiring once had to) must not make coherence
// run twice per event. Twice would be visible: a patched discussion
// entry would advance its generation by two, so the same history would
// end on a different validator.
func TestReRegisteringTheInvalidatorIsANoOp(t *testing.T) {
	etagAfterVote := func(reRegister bool) string {
		db, _, urls := coherenceFixture()
		s := NewServer(db, WithURLRateLimit(0, 0))
		if reRegister {
			db.RegisterView(s.EventInvalidator())
		}
		srv := httptest.NewServer(s)
		defer srv.Close()
		page := srv.URL + "/discussion?url=" + url.QueryEscape(urls[0].URL)
		fetch(t, page, "")
		db.Vote(urls[0].ID, 1, 0)
		resp, body := fetch(t, page, "")
		if !strings.Contains(body, `data-up="1"`) {
			t.Fatalf("reRegister=%v: vote not visible", reRegister)
		}
		return resp.Header.Get("ETag")
	}
	if once, again := etagAfterVote(false), etagAfterVote(true); once != again {
		t.Fatalf("validator after one vote: %s as built, %s after re-registering — coherence ran a different number of times", once, again)
	}
}
