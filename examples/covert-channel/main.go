// Covert channel: the paper's §6 observation made concrete. Any URL —
// existing or not, any scheme — anchors a Dissenter comment thread, so
// two users who agree on an arbitrary fictitious URL get a hidden
// mailbox: invisible to every web user, absent from any search engine,
// discoverable only by knowing the anchor string. This example builds a
// platform where two users converse on a made-up URL and shows that (a)
// the thread is fully functional and (b) a site owner crawling their own
// real URLs would never see it.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

func main() {
	gen := ids.NewGenerator(42)
	t0 := time.Date(2019, 6, 1, 12, 0, 0, 0, time.UTC)

	alice := &platform.User{GabID: 1, Username: "alice", CreatedAt: t0,
		HasDissenter: true, AuthorID: gen.NewAt(t0)}
	bob := &platform.User{GabID: 2, Username: "bob", CreatedAt: t0,
		HasDissenter: true, AuthorID: gen.NewAt(t0)}

	// The anchor need not resolve, nor even use a real scheme.
	const anchor = "dissenter://dead-drop/7f3a91/channel-one"
	drop := &platform.CommentURL{ID: gen.NewAt(t0), URL: anchor, FirstSeen: t0}

	msgs := []struct {
		author *platform.User
		text   string
	}{
		{alice, "the package is at the usual place"},
		{bob, "confirmed. same time thursday"},
		{alice, "bring the second key"},
	}
	db := platform.New(
		[]*platform.User{alice, bob},
		[]*platform.CommentURL{drop},
		nil, nil)
	var parent ids.ObjectID
	for i, m := range msgs {
		at := t0.Add(time.Duration(i+1) * time.Minute)
		c := &platform.Comment{ID: gen.NewAt(at), URLID: drop.ID,
			AuthorID: m.author.AuthorID, ParentID: parent, Text: m.text, CreatedAt: at}
		db.AddComment(c)
		parent = c.ID
	}
	if err := db.Validate(); err != nil {
		log.Fatal(err)
	}

	srv := httptest.NewServer(dissenterweb.NewServer(db, dissenterweb.WithURLRateLimit(0, 0)))
	defer srv.Close()

	// Anyone who knows the anchor sees the conversation...
	page := fetch(srv.URL + "/discussion?url=" + url.QueryEscape(anchor))
	fmt.Println("== the dead drop, as seen by someone who knows the anchor ==")
	for _, m := range msgs {
		fmt.Printf("  message present: %v  (%q)\n", strings.Contains(page, m.text), m.text)
	}

	// ...while the content owner, enumerating every URL they actually
	// serve, finds nothing: the anchor exists only inside Dissenter.
	fmt.Println("\n== the web's view ==")
	for _, owned := range []string{
		"https://dead-drop.example.com/",
		"https://dead-drop.example.com/channel-one",
	} {
		page := fetch(srv.URL + "/discussion?url=" + url.QueryEscape(owned))
		fmt.Printf("  owned URL %-45s -> %q\n", owned, firstLineWith(page, "No comments"))
	}
	fmt.Println("\nthe channel is a URL that was never served by anyone:", anchor)
}

func fetch(u string) string {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}

func firstLineWith(page, marker string) string {
	if strings.Contains(page, marker) {
		return "No comments yet. Be the first to dissent!"
	}
	return "(thread exists!)"
}
