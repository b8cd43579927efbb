package deployment

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dissenter/internal/platform"
	"dissenter/internal/synth"
	"dissenter/internal/youtube"
)

// request sends one request to srv, with a session cookie when session
// is not empty, and returns the status and body.
func request(t *testing.T, srv *httptest.Server, method, path, session, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: session})
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestMuxRoutesEverySimulator requests one page of each simulator
// through one server over Mux — the route list in dissenter-platform's
// package doc, executed — and checks each answers 200 with its own
// content: a mount that shadows another simulator's route, or a probe
// session Mux failed to register, fails here.
func TestMuxRoutesEverySimulator(t *testing.T) {
	const seed = 33
	out := synth.Generate(synth.NewConfig(1.0/512, seed))
	db := out.DB
	srv := httptest.NewServer(Mux(out.YouTube, db, seed, nil, nil))
	defer srv.Close()

	type page struct {
		name, method, path, session, body, want string
	}
	var pages []page

	var gabUser *platform.User
	db.RangeUsers(func(u *platform.User) bool {
		if db.UserByGabID(u.GabID) != nil {
			gabUser = u
		}
		return gabUser == nil
	})
	pages = append(pages, page{name: "gab account", path: "/api/v1/accounts/" + gabUser.GabID.String(),
		want: `"username":"` + gabUser.Username + `"`})

	// A comment hidden behind exactly one view setting shows on its page
	// under that setting's probe session, and not anonymously.
	var nsfw, offensive *platform.Comment
	db.RangeComments(func(c *platform.Comment) bool {
		switch {
		case c.NSFW && !c.Offensive && nsfw == nil:
			nsfw = c
		case c.Offensive && !c.NSFW && offensive == nil:
			offensive = c
		}
		return nsfw == nil || offensive == nil
	})
	for _, probe := range []struct {
		session string
		c       *platform.Comment
	}{{"nsfw-probe", nsfw}, {"off-probe", offensive}} {
		path := "/discussion?url=" + url.QueryEscape(db.URLByID(probe.c.URLID).URL)
		row := `data-comment-id="` + probe.c.ID.String() + `"`
		pages = append(pages, page{name: "discussion as " + probe.session, path: path, session: probe.session, want: row})
		if _, body := request(t, srv, http.MethodGet, path, "", ""); strings.Contains(body, row) {
			t.Errorf("%s: the anonymous page shows the comment only %s should see", path, probe.session)
		}
	}
	pages = append(pages,
		page{name: "trends", path: "/trends", want: `class="trend"`},
		page{name: "leaderboard", path: "/leaderboard", want: `class="leader"`})

	// One YouTube page of each kind, requested at the path the route
	// table documents: a user homepage lives under /user-yt/.
	seen := map[youtube.Kind]bool{}
	db.RangeURLs(func(cu *platform.CommentURL) bool {
		v, ok := out.YouTube.Lookup(cu.URL)
		u, err := url.Parse(cu.URL)
		if !ok || err != nil || !strings.HasSuffix(u.Host, "youtube.com") || seen[v.Kind] {
			return true
		}
		seen[v.Kind] = true
		path := u.RequestURI()
		if v.Kind == youtube.KindUser {
			path = "/user-yt/" + strings.TrimPrefix(u.Path, "/user/")
		}
		pages = append(pages, page{name: "youtube " + string(v.Kind), path: path,
			want: `"pageKind": "` + string(v.Kind) + `"`})
		return len(seen) < 3
	})
	if len(seen) < 3 {
		t.Fatalf("corpus has YouTube pages of %d kinds, want 3", len(seen))
	}

	pages = append(pages, page{name: "perspective", method: http.MethodPost, path: "/v1/comments:analyze",
		body: `{"comment":{"text":"you are an idiot"},"requestedAttributes":{"SEVERE_TOXICITY":{}}}`,
		want: `"SEVERE_TOXICITY"`})

	// Pushshift: the first Dissenter user with a Reddit comment history.
	for _, u := range db.DissenterUsers() {
		search := "/reddit/search/comment/?author=" + url.QueryEscape(u.Username)
		if _, body := request(t, srv, http.MethodGet, search, "", ""); strings.Contains(body, `"author"`) {
			pages = append(pages,
				page{name: "pushshift user", path: "/api/user/" + u.Username, want: `{"name":"` + u.Username + `"}`},
				page{name: "pushshift author search", path: search, want: `"author":"` + u.Username + `"`})
			break
		}
	}

	for _, p := range pages {
		if p.method == "" {
			p.method = http.MethodGet
		}
		status, body := request(t, srv, p.method, p.path, p.session, p.body)
		if status != http.StatusOK || !strings.Contains(body, p.want) {
			t.Errorf("%s: %s %s = %d, want 200 containing %s; body starts %.120q",
				p.name, p.method, p.path, status, p.want, body)
		}
	}
	if len(pages) != 11 {
		t.Errorf("requested %d pages, want 11: a fixture page was not found", len(pages))
	}
}
