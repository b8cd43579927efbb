package dissenterweb

import (
	"bytes"
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// The fragment-assembly oracle: discussion pages are concatenations
// of write-maintained row streams plus a patched mutable span, and
// home pages render from DB.HomeURLs, so these tests pin the assembled output BYTE-IDENTICAL
// to the seed's full render — reimplemented here from scratch (two
// passes, html.EscapeString on every comment) so a drift in either the
// fragment shape or the assembly order fails loudly. Run under -race:
// the concurrent variant races posters and voters against readers and
// re-checks equality for all four session views once writes quiesce.

// visible is the seed visibility rule, flag by flag, kept independent
// of platform.Visible's class mask on purpose: every oracle render in
// this package filters through it.
func visible(c *platform.Comment, sess Session) bool {
	if c.NSFW && !sess.ShowNSFW {
		return false
	}
	if c.Offensive && !sess.ShowOffensive {
		return false
	}
	return true
}

// TestVisibleMatchesClassMask pins the production mask form equal to
// the flag-by-flag reference on all 4 comment classes x 4 session
// views, so a rule the mask cannot express fails here first.
func TestVisibleMatchesClassMask(t *testing.T) {
	for cls := 0; cls < 4; cls++ {
		c := &platform.Comment{NSFW: cls&1 != 0, Offensive: cls&2 != 0}
		for view := 0; view < 4; view++ {
			sess := Session{ShowNSFW: view&1 != 0, ShowOffensive: view&2 != 0}
			if got, want := platform.Visible(c, sess.ShowNSFW, sess.ShowOffensive), visible(c, sess); got != want {
				t.Errorf("class %02b under view %02b: platform.Visible = %v, reference = %v", cls, view, got, want)
			}
		}
	}
}

// oracleCommentDiv is the seed row renderer, kept independent of
// platform.AppendCommentRow on purpose.
func oracleCommentDiv(b *bytes.Buffer, class string, c *platform.Comment, withParent bool) {
	b.WriteString(`<div class="`)
	b.WriteString(class)
	b.WriteString(`" data-comment-id="`)
	b.WriteString(c.ID.String())
	b.WriteString(`" data-author-id="`)
	b.WriteString(c.AuthorID.String())
	if withParent {
		b.WriteString(`" data-parent-id="`)
		if !c.ParentID.IsZero() {
			b.WriteString(c.ParentID.String())
		}
	}
	b.WriteString("\">\n<p class=\"comment-text\">")
	b.WriteString(html.EscapeString(c.Text))
	b.WriteString("</p>\n</div>\n")
}

// oracleDiscussion is the seed discussion render: a counting pass and a
// rendering pass over the full comment list.
func oracleDiscussion(db *platform.DB, cu *platform.CommentURL, sess Session) string {
	var b bytes.Buffer
	b.WriteString("<!DOCTYPE html><html><head><title>Dissenter Discussion</title></head><body>\n")
	b.WriteString(`<div class="discussion" data-commenturl-id="`)
	b.WriteString(cu.ID.String())
	b.WriteString("\">\n<h1 class=\"pagetitle\">")
	b.WriteString(html.EscapeString(cu.Title))
	b.WriteString("</h1>\n<p class=\"pagedescription\">")
	b.WriteString(html.EscapeString(cu.Description))
	b.WriteString("</p>\n")
	comments := db.CommentsOnURL(cu.ID)
	shown := 0
	for _, c := range comments {
		if visible(c, sess) {
			shown++
		}
	}
	ups, downs := db.Votes(cu.ID)
	fmt.Fprintf(&b, `<span class="votes" data-up="%d" data-down="%d"></span>`+"\n", ups, downs)
	fmt.Fprintf(&b, `<span class="commentcount">%d</span>`+"\n</div>\n", shown)
	for _, c := range comments {
		if !visible(c, sess) {
			continue
		}
		oracleCommentDiv(&b, "comment", c, true)
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// urlsCommentedBy is the reference scan behind the home-page oracles:
// the distinct registered URLs the author commented on, in
// first-comment order, whatever their visibility.
func urlsCommentedBy(db *platform.DB, author ids.ObjectID) []*platform.CommentURL {
	seen := map[ids.ObjectID]bool{}
	var out []*platform.CommentURL
	for _, c := range db.CommentsByAuthor(author) {
		if !seen[c.URLID] {
			seen[c.URLID] = true
			if cu := db.URLByID(c.URLID); cu != nil {
				out = append(out, cu)
			}
		}
	}
	return out
}

// oracleHome is the seed home render: urlsCommentedBy filtered by the
// per-URL any-visible-comment scan.
func oracleHome(db *platform.DB, u *platform.User, sess Session) string {
	var b bytes.Buffer
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
	for _, cu := range urlsCommentedBy(db, u.AuthorID) {
		anyVisible := false
		for _, c := range db.CommentsOnURL(cu.ID) {
			if c.AuthorID == u.AuthorID && visible(c, sess) {
				anyVisible = true
				break
			}
		}
		if !anyVisible {
			continue
		}
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

// oracleViews is one session per view key, with tokens registered by
// registerOracleSessions.
var oracleViews = []struct {
	token string
	sess  Session
}{
	{"", Session{}},
	{"oracle-10", Session{ShowNSFW: true}},
	{"oracle-01", Session{ShowOffensive: true}},
	{"oracle-11", Session{ShowNSFW: true, ShowOffensive: true}},
}

func registerOracleSessions(s *Server) {
	for _, v := range oracleViews {
		if v.token != "" {
			s.RegisterSession(v.token, v.sess)
		}
	}
}

// assertPagesMatchOracle fetches each URL's discussion page and each
// user's home page under all four views and compares bytes.
func assertPagesMatchOracle(t *testing.T, srv *httptest.Server, db *platform.DB,
	urls []*platform.CommentURL, users []*platform.User) {
	t.Helper()
	for _, v := range oracleViews {
		for _, cu := range urls {
			_, got := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(cu.URL), v.token)
			want := oracleDiscussion(db, cu, v.sess)
			if got != want {
				t.Errorf("discussion %s view %+v: fragment assembly diverges from full render (%d vs %d bytes)",
					cu.URL, v.sess, len(got), len(want))
			}
		}
		for _, u := range users {
			_, got := fetch(t, srv.URL+"/user/"+u.Username, v.token)
			want := oracleHome(db, u, v.sess)
			if got != want {
				t.Errorf("home %s view %+v: fragment assembly diverges from full render (%d vs %d bytes)",
					u.Username, v.sess, len(got), len(want))
			}
		}
	}
}

func TestFragmentPagesByteEqualFullRender(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	urls := allURLs(priv.DB)
	if len(urls) > 8 {
		urls = urls[:8]
	}
	users := priv.DB.ActiveUsers()
	if len(users) > 4 {
		users = users[:4]
	}
	// Twice: the first pass fills (cold fragment view + cache), the
	// second serves patched/cached entries.
	assertPagesMatchOracle(t, srv, priv.DB, urls, users)
	assertPagesMatchOracle(t, srv, priv.DB, urls, users)
}

// TestFragmentPagesByteEqualFullRenderUnderWrites is the moving-target
// variant: concurrent posters (plain, NSFW, offensive, replies) and
// voters hammer a handful of hot URLs while readers pull all four
// views; once writes quiesce, every page must still be byte-identical
// to the full render.
func TestFragmentPagesByteEqualFullRenderUnderWrites(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	poster := registerPoster(t, s, priv, "poster-tok")
	hot := allURLs(priv.DB)[:4]

	const posters, perPoster, voters, perVoter = 3, 10, 2, 10
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				form := url.Values{
					"url":  {hot[(p+i)%len(hot)].URL},
					"text": {fmt.Sprintf(`racing <poster> %d "comment" %d`, p, i)},
				}
				if i%3 == 0 {
					form.Set("nsfw", "1")
				}
				if i%4 == 0 {
					form.Set("offensive", "1")
				}
				resp, body := postComment(t, srv, "poster-tok", form)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("racing post status = %d, body %q", resp.StatusCode, body)
					return
				}
			}
		}(p)
	}
	for v := 0; v < voters; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := 0; i < perVoter; i++ {
				dir := "up"
				if (v+i)%3 == 0 {
					dir = "down"
				}
				resp, _ := fetch(t, srv.URL+"/discussion/vote?dir="+dir+
					"&url="+url.QueryEscape(hot[i%len(hot)].URL), "")
				if resp.StatusCode != http.StatusOK { // redirect followed
					t.Errorf("racing vote status = %d", resp.StatusCode)
					return
				}
			}
		}(v)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2*perPoster; i++ {
				v := oracleViews[(r+i)%len(oracleViews)]
				fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(hot[i%len(hot)].URL), v.token)
				fetch(t, srv.URL+"/user/"+poster.Username, v.token)
			}
		}(r)
	}
	wg.Wait()

	assertPagesMatchOracle(t, srv, priv.DB, hot, []*platform.User{poster})
}
