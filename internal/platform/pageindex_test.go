package platform

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// pageFixture builds a small store with flagged comments spread over a
// few URLs and authors, plus spare users/URLs for runtime writes.
func pageFixture(t *testing.T) (*DB, *ids.Generator, []*User, []*CommentURL) {
	t.Helper()
	gen := ids.NewGenerator(0xBADC0DE)
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	users := make([]*User, 4)
	for i := range users {
		users[i] = &User{
			GabID:        ids.GabID(i + 1),
			Username:     fmt.Sprintf("pageuser%d", i),
			HasDissenter: true,
			AuthorID:     gen.NewAt(base),
		}
	}
	urls := make([]*CommentURL, 5)
	for i := range urls {
		urls[i] = &CommentURL{
			ID:        gen.NewAt(base),
			URL:       fmt.Sprintf("https://page.example/%d", i),
			Title:     fmt.Sprintf("Page %d", i),
			FirstSeen: base,
		}
	}
	var comments []*Comment
	at := base.Add(time.Hour)
	for i := 0; i < 40; i++ {
		comments = append(comments, &Comment{
			ID:        gen.NewAt(at),
			URLID:     urls[i%3].ID, // urls[3], urls[4] stay empty
			AuthorID:  users[i%len(users)].AuthorID,
			Text:      fmt.Sprintf(`seed <comment> #%d & "quotes"`, i),
			CreatedAt: at,
			NSFW:      i%5 == 0,
			Offensive: i%7 == 0,
		})
	}
	return New(users, urls, comments, nil), gen, users, urls
}

// oracleStream renders a view's comment stream the slow way: walk the
// page in ID order and escape every visible comment from scratch.
func oracleStream(db *DB, urlID ids.ObjectID, showNSFW, showOffensive bool) ([]byte, int) {
	var out []byte
	n := 0
	for _, c := range db.CommentsOnURL(urlID) {
		if c.NSFW && !showNSFW {
			continue
		}
		if c.Offensive && !showOffensive {
			continue
		}
		out = AppendCommentRow(out, "comment", c, true)
		n++
	}
	return out, n
}

// assertStreamsMatchOracle checks all four views of every URL against
// the full-scan oracle.
func assertStreamsMatchOracle(t *testing.T, db *DB, urls []*CommentURL) {
	t.Helper()
	for _, cu := range urls {
		for _, view := range []struct{ nsfw, off bool }{
			{false, false}, {true, false}, {false, true}, {true, true},
		} {
			got, gotN := db.CommentStream(cu.ID, view.nsfw, view.off)
			want, wantN := oracleStream(db, cu.ID, view.nsfw, view.off)
			if gotN != wantN {
				t.Errorf("%s nsfw=%v off=%v: count = %d, oracle %d",
					cu.URL, view.nsfw, view.off, gotN, wantN)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s nsfw=%v off=%v: stream diverges from full render (%d vs %d bytes)",
					cu.URL, view.nsfw, view.off, len(got), len(want))
			}
		}
	}
}

func TestCommentStreamMatchesFullRender(t *testing.T) {
	db, _, _, urls := pageFixture(t)
	assertStreamsMatchOracle(t, db, urls)
	// Empty pages render empty streams with zero counts.
	s, n := db.CommentStream(urls[4].ID, true, true)
	if len(s) != 0 || n != 0 {
		t.Errorf("empty page: stream %d bytes, count %d", len(s), n)
	}
}

func TestCommentStreamMaintainedAcrossWrites(t *testing.T) {
	db, gen, users, urls := pageFixture(t)
	// Materialize every page first, so the writes exercise the
	// incremental append path, not the lazy rebuild.
	for _, cu := range urls {
		db.CommentStream(cu.ID, false, false)
	}
	for i := 0; i < 20; i++ {
		db.AddComment(&Comment{
			ID:        gen.New(),
			URLID:     urls[i%len(urls)].ID,
			AuthorID:  users[i%len(users)].AuthorID,
			Text:      fmt.Sprintf("live <b>write</b> %d", i),
			CreatedAt: time.Now(),
			NSFW:      i%3 == 0,
			Offensive: i%4 == 0,
		})
	}
	assertStreamsMatchOracle(t, db, urls)
}

func TestCommentStreamOutOfOrderInserts(t *testing.T) {
	db, gen, users, urls := pageFixture(t)
	db.CommentStream(urls[3].ID, true, true) // materialize the empty page
	// Mint IDs in order, insert in reverse: every insert after the
	// first arrives before the already-folded-in comments and must
	// trigger the rebuild path.
	at := time.Now()
	minted := make([]*Comment, 6)
	for i := range minted {
		minted[i] = &Comment{
			ID:        gen.NewAt(at),
			URLID:     urls[3].ID,
			AuthorID:  users[0].AuthorID,
			Text:      fmt.Sprintf("out of order %d", i),
			CreatedAt: at,
		}
	}
	for i := len(minted) - 1; i >= 0; i-- {
		db.AddComment(minted[i])
	}
	got, n := db.CommentStream(urls[3].ID, false, false)
	want, wantN := oracleStream(db, urls[3].ID, false, false)
	if n != wantN || !bytes.Equal(got, want) {
		t.Errorf("out-of-order inserts: stream diverges from ID-ordered oracle")
	}
}

// urlsCommentedBy is the reference scan HomeURLs is checked against:
// the distinct registered URLs the author commented on, in
// first-comment order, whatever their visibility.
func urlsCommentedBy(db *DB, author ids.ObjectID) []*CommentURL {
	seen := map[ids.ObjectID]bool{}
	var out []*CommentURL
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

// oracleHomeURLs is the old home-page listing logic: distinct URLs in
// first-comment order, filtered to those with a comment by the author
// that the view exposes.
func oracleHomeURLs(db *DB, author ids.ObjectID, showNSFW, showOffensive bool) []*CommentURL {
	var out []*CommentURL
	for _, cu := range urlsCommentedBy(db, author) {
		visible := false
		for _, c := range db.CommentsOnURL(cu.ID) {
			if c.AuthorID != author {
				continue
			}
			if c.NSFW && !showNSFW {
				continue
			}
			if c.Offensive && !showOffensive {
				continue
			}
			visible = true
			break
		}
		if visible {
			out = append(out, cu)
		}
	}
	return out
}

func assertHomesMatchOracle(t *testing.T, db *DB, users []*User) {
	t.Helper()
	for _, u := range users {
		for _, view := range []struct{ nsfw, off bool }{
			{false, false}, {true, false}, {false, true}, {true, true},
		} {
			got := db.HomeURLs(u.AuthorID, view.nsfw, view.off)
			want := oracleHomeURLs(db, u.AuthorID, view.nsfw, view.off)
			if len(got) != len(want) {
				t.Errorf("%s nsfw=%v off=%v: %d home URLs, oracle %d",
					u.Username, view.nsfw, view.off, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s nsfw=%v off=%v: home URL %d is %s, oracle %s",
						u.Username, view.nsfw, view.off, i, got[i].URL, want[i].URL)
				}
			}
		}
	}
}

func TestHomeURLsMatchesFullScan(t *testing.T) {
	db, gen, users, urls := pageFixture(t)
	assertHomesMatchOracle(t, db, users)
	// Maintained across live writes, including a write that adds a URL
	// to an author's listing only for opted-in views.
	db.HomeURLs(users[0].AuthorID, false, false) // materialize
	db.AddComment(&Comment{
		ID:        gen.New(),
		URLID:     urls[4].ID,
		AuthorID:  users[0].AuthorID,
		Text:      "hidden-only presence",
		CreatedAt: time.Now(),
		NSFW:      true,
	})
	assertHomesMatchOracle(t, db, users)
}

func TestHomeURLsResolvesLateRegistration(t *testing.T) {
	db, gen, users, _ := pageFixture(t)
	author := users[1].AuthorID
	db.HomeURLs(author, false, false) // materialize
	// A comment referencing a URL the store has not registered yet must
	// surface on the home page as soon as the registration lands.
	urlID := gen.New()
	db.AddComment(&Comment{
		ID:       gen.New(),
		URLID:    urlID,
		AuthorID: author,
		Text:     "comment before registration",
	})
	for _, cu := range db.HomeURLs(author, false, false) {
		if cu.ID == urlID {
			t.Fatal("unregistered URL leaked into the home listing")
		}
	}
	db.SubmitURL(&CommentURL{ID: urlID, URL: "https://late.example/x", FirstSeen: time.Now()})
	found := false
	for _, cu := range db.HomeURLs(author, false, false) {
		if cu.ID == urlID {
			found = true
		}
	}
	if !found {
		t.Error("late-registered URL missing from the home listing")
	}
	assertHomesMatchOracle(t, db, users)
}

// TestViewsAliasUntilARowIsHidden: a view that hides no row of a page is
// the show-everything stream itself — one array for all four, grown by
// one append per post — and the first labelled post gives only the views
// that hide it an array of their own, with the oracle's bytes.
func TestViewsAliasUntilARowIsHidden(t *testing.T) {
	db, gen, users, urls := pageFixture(t)
	cu := urls[3] // empty in the fixture
	post := func(text string, nsfw bool) {
		at := time.Now()
		db.AddComment(&Comment{ID: gen.NewAt(at), URLID: cu.ID, AuthorID: users[0].AuthorID, Text: text, CreatedAt: at, NSFW: nsfw})
	}
	// first is the address of each view's first byte, in mask order:
	// neither flag shown, NSFW shown, offensive shown, both.
	first := func() (at [4]*byte) {
		for v := range at {
			s, _ := db.CommentStream(cu.ID, v&classNSFW != 0, v&classOffensive != 0)
			at[v] = &s[0]
		}
		return at
	}
	p := db.pages.page(db, cu.ID)
	for i := 0; i < 3; i++ { // the second and third land on a materialized page
		post(fmt.Sprintf("nothing to hide %d", i), false)
		at := first()
		if at[0] != at[allRows] || at[classNSFW] != at[allRows] || at[classOffensive] != at[allRows] {
			t.Fatalf("post %d: a page with no labelled comment holds more than one stream: %v", i, at)
		}
		if p.views[0] != nil || p.views[classNSFW] != nil || p.views[classOffensive] != nil {
			t.Fatalf("post %d: a view that hides nothing was materialized", i)
		}
	}
	assertStreamsMatchOracle(t, db, urls)

	post("hidden from the anonymous view", true)
	at := first()
	if at[0] == at[allRows] || at[classOffensive] == at[allRows] {
		t.Fatalf("a view that hides the NSFW row still aliases the show-everything stream: %v", at)
	}
	if at[classNSFW] != at[allRows] {
		t.Fatal("the NSFW view hides nothing on this page and must keep aliasing")
	}
	assertStreamsMatchOracle(t, db, urls)
}

// TestRowSizeIsExact: the size rebuildLocked reserves per row is the
// size AppendCommentRow writes, escaping included.
func TestRowSizeIsExact(t *testing.T) {
	gen := ids.NewGenerator(7)
	c := &Comment{ID: gen.New(), AuthorID: gen.New(), Text: "plain text"}
	for _, parent := range []ids.ObjectID{{}, gen.New()} {
		c.ParentID = parent
		if got := len(AppendCommentRow(nil, "comment", c, true)); got != rowSize(c) {
			t.Errorf("parent %v: a row is %d bytes, rowSize says %d", parent, got, rowSize(c))
		}
	}
	for _, text := range []string{"a < b", `Tom & "Jerry" aren't > 'x'`} {
		c.Text = text
		if got := len(AppendCommentRow(nil, "comment", c, true)); got != rowSize(c) {
			t.Errorf("%q: an escaped row is %d bytes, rowSize says %d", text, got, rowSize(c))
		}
	}
}

// TestEscapedRowKeepsStreamExact: a page holding a row whose text needs
// escaping is built into a stream of exactly its size. An estimate that
// ignored escaping made the last append copy the whole stream into an
// array about 1.25× as large, and the page kept it.
func TestEscapedRowKeepsStreamExact(t *testing.T) {
	gen := ids.NewGenerator(0xE5C)
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	user := &User{GabID: 1, Username: "escaper", HasDissenter: true, AuthorID: gen.NewAt(base)}
	cu := &CommentURL{ID: gen.NewAt(base), URL: "https://escape.example/", FirstSeen: base}
	var comments []*Comment
	for i, text := range []string{"plain", "plain again", `a <b> & "c" isn't d`} {
		comments = append(comments, &Comment{
			ID: gen.NewAt(base.Add(time.Duration(i+1) * time.Hour)), URLID: cu.ID,
			AuthorID: user.AuthorID, Text: text,
		})
	}
	db := New([]*User{user}, []*CommentURL{cu}, comments, nil)
	db.CommentStream(cu.ID, false, false)
	s := db.pages.page(db, cu.ID).views[allRows]
	if len(s) != cap(s) {
		t.Fatalf("the stream of a page with an escaped row is %d bytes in an array of %d", len(s), cap(s))
	}
}

// TestPageIndexMaterializationBounded: rendering more distinct pages
// than the cap resets the materialized set wholesale instead of
// pinning every page's HTML forever, and pages remain correct (they
// re-materialize from the base indexes) afterwards.
func TestPageIndexMaterializationBounded(t *testing.T) {
	gen := ids.NewGenerator(0x10AD)
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	user := &User{GabID: 1, Username: "bounded", HasDissenter: true, AuthorID: gen.NewAt(base)}
	urls := make([]*CommentURL, maxMaterializedPages+8)
	for i := range urls {
		urls[i] = &CommentURL{
			ID:        gen.NewAt(base),
			URL:       fmt.Sprintf("https://bound.example/%d", i),
			FirstSeen: base,
		}
	}
	comments := []*Comment{{
		ID:       gen.NewAt(base.Add(time.Hour)),
		URLID:    urls[0].ID,
		AuthorID: user.AuthorID,
		Text:     "the page that must survive the reset",
	}}
	db := New([]*User{user}, urls, comments, nil)
	for _, cu := range urls {
		db.CommentStream(cu.ID, false, false)
	}
	if n := db.pages.nPages.Load(); n > maxMaterializedPages {
		t.Errorf("materialized-page counter %d exceeds the cap %d after a full sweep", n, maxMaterializedPages)
	}
	got, n := db.CommentStream(urls[0].ID, false, false)
	want, wantN := oracleStream(db, urls[0].ID, false, false)
	if n != wantN || !bytes.Equal(got, want) {
		t.Error("page re-materialized after the bound reset diverges from the oracle")
	}
}

// TestPageIndexOracleEquivalenceConcurrent races writers against
// stream/home readers and checks full agreement with the slow oracle
// once writes quiesce. Run under -race.
func TestPageIndexOracleEquivalenceConcurrent(t *testing.T) {
	db, _, users, urls := pageFixture(t)
	const writers, perWriter = 4, 50
	var readersWG, writersWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cu := urls[i%len(urls)]
				db.CommentStream(cu.ID, i%2 == 0, r == 0)
				db.HomeURLs(users[i%len(users)].AuthorID, r == 0, i%2 == 0)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			gen := ids.NewGenerator(uint64(w) * 104729)
			for i := 0; i < perWriter; i++ {
				db.AddComment(&Comment{
					ID:        gen.New(),
					URLID:     urls[(w+i)%len(urls)].ID,
					AuthorID:  users[(w*3+i)%len(users)].AuthorID,
					Text:      fmt.Sprintf(`racer %d <wrote> #%d`, w, i),
					CreatedAt: time.Now(),
					NSFW:      i%4 == 0,
					Offensive: i%6 == 0,
				})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	assertStreamsMatchOracle(t, db, urls)
	assertHomesMatchOracle(t, db, users)
}
