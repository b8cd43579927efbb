// Package deployment is the simulated platform the paper measured from
// the outside (§3.1–3.3) as one handler: the Gab API, the Dissenter web
// app, the YouTube pages it links to, a Perspective-style scoring
// endpoint and a Pushshift-style Reddit API on one http.ServeMux.
// cmd/dissenter-platform serves it behind replica.PrimaryRoot,
// repro.Run crawls it through the same Root, and examples/live-crawl
// and the crawl test fixtures serve it too — one route table for every
// crawl in the repository.
package deployment

import (
	"net/http"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/gabapi"
	"dissenter/internal/perspective"
	"dissenter/internal/platform"
	"dissenter/internal/pushshift"
	"dissenter/internal/youtube"
)

// Mux mounts every simulator. site is the corpus's YouTube site; db is
// the store the Gab API, the Dissenter app and the Reddit population
// describe, which after a restore is not the corpus's own; seed is the
// corpus's generation seed, and the Reddit population draws from
// seed+1. The Gab API and the Dissenter app run unthrottled unless
// gabOpts or webOpts, applied after that default, say otherwise.
//
// Three sessions are registered: "nsfw-probe" and "off-probe"
// (dissenterweb.Server.RegisterProbeSessions) for the differential
// crawl, and "writer", bound to the store's first active Dissenter user
// when it has one, for posting through POST /discussion/comment.
func Mux(site *youtube.Site, db *platform.DB, seed int64, gabOpts []gabapi.Option, webOpts []dissenterweb.Option) *http.ServeMux {
	gab := gabapi.NewServer(db, append([]gabapi.Option{gabapi.WithRateLimit(0, 0)}, gabOpts...)...)
	web := dissenterweb.NewServer(db, append([]dissenterweb.Option{dissenterweb.WithURLRateLimit(0, 0)}, webOpts...)...)
	web.RegisterProbeSessions()
	if active := db.ActiveUsers(); len(active) > 0 {
		web.RegisterSession("writer", dissenterweb.Session{Username: active[0].Username})
	}
	var names []string
	for _, u := range db.DissenterUsers() {
		names = append(names, u.Username)
	}
	reddit := pushshift.NewSim(names, seed+1)

	mux := http.NewServeMux()
	mux.Handle("/api/v1/accounts/", gab)
	for _, pattern := range dissenterweb.Mounts {
		mux.Handle(pattern, web)
	}
	for _, pattern := range youtube.Mounts {
		mux.Handle(pattern, site)
	}
	mux.Handle("/v1/comments:analyze", perspective.Handler())
	mux.Handle("/reddit/", reddit)
	mux.Handle("/api/user/", reddit)
	return mux
}
