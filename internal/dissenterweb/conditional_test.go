package dissenterweb

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// Conditional-request correctness for the composed-response layer
// (respond.go): strong ETags revalidate to bodyless 304s, a 304 is
// NEVER served across an invalidation or in-place patch (the stale
// validator must yield 200 + the new body, pinned against the
// full-render oracles), and the write-time gzip variant decompresses
// byte-identical to the identity body. The replica variant drives the
// same guarantees through EventInvalidator, and the concurrent variant
// races writers against revalidating readers under -race.

// condFetch is fetch with an If-None-Match validator.
func condFetch(t *testing.T, rawurl, session, etag string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: session})
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// gzipFetch requests the gzip variant explicitly (setting the header
// ourselves disables the transport's transparent decompression, so the
// raw variant and its headers are observable) and returns the
// decompressed body.
func gzipFetch(t *testing.T, rawurl, session string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: session})
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("GET %s: Content-Encoding = %q, want gzip", rawurl, ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return resp, string(body)
}

func TestETagRevalidatesTo304(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	cu := busyURL(t, priv)
	user := priv.DB.ActiveUsers()[0]

	pages := []string{
		"/discussion?url=" + url.QueryEscape(cu.URL),
		"/user/" + user.Username,
		"/trends",
		"/leaderboard",
	}
	for _, v := range oracleViews {
		for _, p := range pages {
			resp, body := fetch(t, srv.URL+p, v.token)
			etag := resp.Header.Get("ETag")
			if etag == "" {
				t.Fatalf("%s view %q: no ETag on 200", p, v.token)
			}
			if body == "" {
				t.Fatalf("%s view %q: empty 200 body", p, v.token)
			}
			cresp, cbody := condFetch(t, srv.URL+p, v.token, etag)
			if cresp.StatusCode != http.StatusNotModified {
				t.Fatalf("%s view %q: fresh If-None-Match %s = %d, want 304",
					p, v.token, etag, cresp.StatusCode)
			}
			if cbody != "" {
				t.Fatalf("%s view %q: 304 carried %d body bytes", p, v.token, len(cbody))
			}
			if got := cresp.Header.Get("ETag"); got != etag {
				t.Fatalf("%s view %q: 304 ETag = %q, want %q", p, v.token, got, etag)
			}
		}
	}
}

// TestNo304AcrossInvalidation is the oracle for the tentpole's safety
// property: after a write lands (vote patches in place, comment
// patches + invalidates, both bump the generation), a client
// revalidating with the pre-write ETag must get a full 200 whose body
// equals the independent post-write render — for every session view.
func TestNo304AcrossInvalidation(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	poster := registerPoster(t, s, priv, "poster-tok")
	cu := busyURL(t, priv)
	discussion := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	// Stale validator across an in-place vote patch.
	for _, v := range oracleViews {
		resp, _ := fetch(t, discussion, v.token)
		stale := resp.Header.Get("ETag")

		vresp, _ := fetch(t, srv.URL+"/discussion/vote?dir=up&url="+url.QueryEscape(cu.URL), "")
		if vresp.StatusCode != http.StatusOK {
			t.Fatalf("vote status = %d", vresp.StatusCode)
		}

		cresp, cbody := condFetch(t, discussion, v.token, stale)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale ETag after vote = %d, want 200", v.token, cresp.StatusCode)
		}
		if want := oracleDiscussion(priv.DB, cu, v.sess); cbody != want {
			t.Fatalf("view %q: post-vote conditional body diverges from oracle (%d vs %d bytes)",
				v.token, len(cbody), len(want))
		}
		if fresh := cresp.Header.Get("ETag"); fresh == stale || fresh == "" {
			t.Fatalf("view %q: post-vote ETag %q did not change from %q", v.token, fresh, stale)
		}
	}

	// Stale validator across a posted comment: the discussion stream
	// grows, the author's home views and trends drop.
	home := srv.URL + "/user/" + poster.Username
	for i, v := range oracleViews {
		dresp, _ := fetch(t, discussion, v.token)
		hresp, _ := fetch(t, home, v.token)
		tresp, _ := fetch(t, srv.URL+"/trends", v.token)
		staleDisc, staleHome, staleTrends := dresp.Header.Get("ETag"), hresp.Header.Get("ETag"), tresp.Header.Get("ETag")

		form := url.Values{
			"url":  {cu.URL},
			"text": {fmt.Sprintf("conditional probe %d", i)},
		}
		if presp, pbody := postComment(t, srv, "poster-tok", form); presp.StatusCode != http.StatusOK {
			t.Fatalf("post status = %d body %q", presp.StatusCode, pbody)
		}

		cresp, cbody := condFetch(t, discussion, v.token, staleDisc)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale ETag after comment = %d, want 200", v.token, cresp.StatusCode)
		}
		if want := oracleDiscussion(priv.DB, cu, v.sess); cbody != want {
			t.Fatalf("view %q: post-comment conditional body diverges from oracle", v.token)
		}
		hcresp, hcbody := condFetch(t, home, v.token, staleHome)
		if hcresp.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale home ETag after comment = %d, want 200", v.token, hcresp.StatusCode)
		}
		if want := oracleHome(priv.DB, poster, v.sess); hcbody != want {
			t.Fatalf("view %q: post-comment home body diverges from oracle", v.token)
		}
		if tcresp, _ := condFetch(t, srv.URL+"/trends", v.token, staleTrends); tcresp.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale trends ETag after comment = %d, want 200", v.token, tcresp.StatusCode)
		}
	}

	// Stale leaderboard validator across a vote (exact-key invalidation).
	lresp, _ := fetch(t, srv.URL+"/leaderboard", "")
	staleLeader := lresp.Header.Get("ETag")
	fetch(t, srv.URL+"/discussion/vote?dir=down&url="+url.QueryEscape(cu.URL), "")
	if lcresp, lbody := condFetch(t, srv.URL+"/leaderboard", "", staleLeader); lcresp.StatusCode != http.StatusOK || lbody == "" {
		t.Fatalf("stale leaderboard ETag after vote = %d (%d bytes), want 200 + body", lcresp.StatusCode, len(lbody))
	}
}

// TestGzipVariantByteIdentical pins the write-time gzip variant: it
// must decompress to exactly the identity body, which itself must
// equal the independent oracle render, under the same ETag.
func TestGzipVariantByteIdentical(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	cu := busyURL(t, priv)
	user := priv.DB.ActiveUsers()[0]

	pages := []string{
		"/discussion?url=" + url.QueryEscape(cu.URL),
		"/user/" + user.Username,
		"/trends",
		"/leaderboard",
	}
	for _, v := range oracleViews {
		for _, p := range pages {
			iresp, ibody := fetch(t, srv.URL+p, v.token)
			gresp, gbody := gzipFetch(t, srv.URL+p, v.token)
			if gbody != ibody {
				t.Fatalf("%s view %q: gzip variant decompresses to %d bytes, identity is %d",
					p, v.token, len(gbody), len(ibody))
			}
			if ge, ie := gresp.Header.Get("ETag"), iresp.Header.Get("ETag"); ge != ie {
				t.Fatalf("%s view %q: variant ETags differ: gzip %q vs identity %q", p, v.token, ge, ie)
			}
		}
	}
	// The discussion page against the from-scratch oracle, both codings.
	for _, v := range oracleViews {
		_, gbody := gzipFetch(t, srv.URL+pages[0], v.token)
		if want := oracleDiscussion(priv.DB, cu, v.sess); gbody != want {
			t.Fatalf("view %q: gunzipped discussion diverges from oracle render", v.token)
		}
	}
}

// TestReplicaNo304AcrossReplicatedWrite drives the same safety
// property on a read-only server whose coherence comes from
// EventInvalidator: writes land in the store from below (as the
// replication stream would apply them) and must still kill stale
// validators.
func TestReplicaNo304AcrossReplicatedWrite(t *testing.T) {
	priv := synth.Generate(synth.NewConfig(1.0/512, 17))
	s := NewServer(priv.DB, ReadOnly(), WithURLRateLimit(0, 0))
	registerOracleSessions(s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	cu := busyURL(t, priv)
	author := priv.DB.ActiveUsers()[0]
	discussion := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)
	idgen := ids.NewGenerator(0x304)

	for _, v := range oracleViews {
		resp, _ := fetch(t, discussion, v.token)
		stale := resp.Header.Get("ETag")

		// A replicated vote: applied through the store write path, so the
		// invalidator's VoteCast coherence runs synchronously in dispatch.
		priv.DB.Vote(cu.ID, 1, 0)

		cresp, cbody := condFetch(t, discussion, v.token, stale)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale ETag after replicated vote = %d, want 200", v.token, cresp.StatusCode)
		}
		if want := oracleDiscussion(priv.DB, cu, v.sess); cbody != want {
			t.Fatalf("view %q: post-replication body diverges from oracle", v.token)
		}

		// A replicated comment.
		resp2, _ := fetch(t, discussion, v.token)
		stale2 := resp2.Header.Get("ETag")
		id := idgen.New()
		priv.DB.AddComment(&platform.Comment{
			ID:        id,
			URLID:     cu.ID,
			AuthorID:  author.AuthorID,
			Text:      "replicated comment " + v.token,
			CreatedAt: id.Time(),
		})
		cresp2, cbody2 := condFetch(t, discussion, v.token, stale2)
		if cresp2.StatusCode != http.StatusOK {
			t.Fatalf("view %q: stale ETag after replicated comment = %d, want 200", v.token, cresp2.StatusCode)
		}
		if want := oracleDiscussion(priv.DB, cu, v.sess); cbody2 != want {
			t.Fatalf("view %q: post-replication comment body diverges from oracle", v.token)
		}

		// And the fresh validator still revalidates.
		fresh := cresp2.Header.Get("ETag")
		if r304, _ := condFetch(t, discussion, v.token, fresh); r304.StatusCode != http.StatusNotModified {
			t.Fatalf("view %q: fresh ETag after writes = %d, want 304", v.token, r304.StatusCode)
		}
	}
}

// TestConditional304NeverStaleUnderWrites races posters and voters
// against revalidating readers: every reader maintains its last seen
// (ETag, body) per view and revalidates in a loop; when writes
// quiesce, a final revalidation may answer 304 only if the remembered
// body is byte-identical to the full-render oracle of the final state.
func TestConditional304NeverStaleUnderWrites(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerOracleSessions(s)
	registerPoster(t, s, priv, "poster-tok")
	hot := allURLs(priv.DB)[:4]

	const posters, perPoster, voters, perVoter, readers = 3, 10, 2, 10, 2
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				form := url.Values{
					"url":  {hot[(p+i)%len(hot)].URL},
					"text": {fmt.Sprintf("revalidation race %d-%d", p, i)},
				}
				if i%3 == 0 {
					form.Set("nsfw", "1")
				}
				if resp, body := postComment(t, srv, "poster-tok", form); resp.StatusCode != http.StatusOK {
					t.Errorf("racing post status = %d body %q", resp.StatusCode, body)
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
				if resp.StatusCode != http.StatusOK {
					t.Errorf("racing vote status = %d", resp.StatusCode)
					return
				}
			}
		}(v)
	}

	type remembered struct{ etag, body string }
	finals := make([]map[string]remembered, readers)
	for rd := 0; rd < readers; rd++ {
		finals[rd] = make(map[string]remembered)
		wg.Add(1)
		go func(rd int, seen map[string]remembered) {
			defer wg.Done()
			for i := 0; i < 3*perPoster; i++ {
				v := oracleViews[(rd+i)%len(oracleViews)]
				cu := hot[i%len(hot)]
				target := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)
				mapKey := cu.URL + "|" + v.token
				prev := seen[mapKey]
				resp, body := condFetch(t, target, v.token, prev.etag)
				switch resp.StatusCode {
				case http.StatusOK:
					seen[mapKey] = remembered{etag: resp.Header.Get("ETag"), body: body}
				case http.StatusNotModified:
					if prev.body == "" {
						t.Errorf("reader %d: 304 for a validator we never held a body for", rd)
						return
					}
				default:
					t.Errorf("reader %d: conditional GET = %d", rd, resp.StatusCode)
					return
				}
			}
		}(rd, finals[rd])
	}
	wg.Wait()

	// Quiesced: a 304 against the remembered validator asserts the
	// remembered body IS the current page; a 200 must deliver it.
	for rd, seen := range finals {
		for _, v := range oracleViews {
			for _, cu := range hot {
				want := oracleDiscussion(priv.DB, cu, v.sess)
				prev := seen[cu.URL+"|"+v.token]
				target := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)
				resp, body := condFetch(t, target, v.token, prev.etag)
				switch resp.StatusCode {
				case http.StatusNotModified:
					if prev.body != want {
						t.Errorf("reader %d %s view %q: 304 validated a body that is NOT the final page (%d vs %d bytes)",
							rd, cu.URL, v.token, len(prev.body), len(want))
					}
				case http.StatusOK:
					if body != want {
						t.Errorf("reader %d %s view %q: final 200 diverges from oracle", rd, cu.URL, v.token)
					}
				default:
					t.Errorf("reader %d: final conditional GET = %d", rd, resp.StatusCode)
				}
			}
		}
	}
}
