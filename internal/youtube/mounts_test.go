package youtube_test

import (
	"net/http"
	"strings"
	"testing"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
	"dissenter/internal/youtube"
)

// TestMountsOwnEverySiteKey: every page of a generated corpus's site is
// requested under a youtube.Mounts pattern and under no dissenterweb
// pattern, so the two share one listener without a YouTube request
// reaching a Dissenter handler. A user homepage keyed by YouTube's own
// /user/ path lands on Dissenter's profile route and fails here.
func TestMountsOwnEverySiteKey(t *testing.T) {
	out := synth.Generate(synth.NewConfig(1.0/512, 33))
	yt, web := http.NewServeMux(), http.NewServeMux()
	for _, pattern := range youtube.Mounts {
		yt.Handle(pattern, http.NotFoundHandler())
	}
	for _, pattern := range dissenterweb.Mounts {
		web.Handle(pattern, http.NotFoundHandler())
	}
	keys, users := map[string]bool{}, 0
	out.DB.RangeURLs(func(cu *platform.CommentURL) bool {
		if _, ok := out.YouTube.Lookup(cu.URL); !ok {
			return true
		}
		key := youtube.PathKey(cu.URL)
		keys[key] = true
		if strings.HasPrefix(key, "/user-yt/") {
			users++
		}
		r, err := http.NewRequest(http.MethodGet, "http://sim"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, p := yt.Handler(r); p == "" {
			t.Errorf("%s: key %s is under no youtube.Mounts pattern", cu.URL, key)
		}
		if _, p := web.Handler(r); p != "" {
			t.Errorf("%s: key %s is under dissenterweb pattern %s", cu.URL, key, p)
		}
		return true
	})
	if len(keys) != out.YouTube.Len() {
		t.Errorf("corpus reaches %d site keys, site has %d", len(keys), out.YouTube.Len())
	}
	if users == 0 {
		t.Error("corpus has no YouTube user homepage: the test checks nothing")
	}
}
