package platform

import (
	"testing"
	"time"

	"dissenter/internal/ids"
)

// parts are the raw entities of the small valid fixture, mutable before
// they are handed to New.
type parts struct {
	users    []*User
	urls     []*CommentURL
	comments []*Comment
	follows  map[ids.GabID][]ids.GabID
}

func validParts() *parts {
	gen := ids.NewGenerator(1)
	t0 := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	alice := &User{GabID: 1, Username: "alice", CreatedAt: t0,
		HasDissenter: true, AuthorID: gen.NewAt(t0)}
	bob := &User{GabID: 2, Username: "bob", CreatedAt: t0}
	carol := &User{GabID: 3, Username: "carol", CreatedAt: t0,
		HasDissenter: true, AuthorID: gen.NewAt(t0), GabDeleted: true}
	cu := &CommentURL{ID: gen.NewAt(t0), URL: "https://example.com/a",
		FirstSeen: t0, Ups: 2, Downs: 1}
	c1 := &Comment{ID: gen.NewAt(t0.Add(time.Hour)), URLID: cu.ID,
		AuthorID: alice.AuthorID, Text: "first", CreatedAt: t0.Add(time.Hour)}
	c2 := &Comment{ID: gen.NewAt(t0.Add(2 * time.Hour)), URLID: cu.ID,
		AuthorID: carol.AuthorID, ParentID: c1.ID, Text: "reply", NSFW: true,
		CreatedAt: t0.Add(2 * time.Hour)}
	return &parts{
		users:    []*User{alice, bob, carol},
		urls:     []*CommentURL{cu},
		comments: []*Comment{c1, c2},
		follows:  map[ids.GabID][]ids.GabID{1: {2}, 2: {1, 3}},
	}
}

func (p *parts) build() *DB {
	return New(p.users, p.urls, p.comments, p.follows)
}

func buildValid() *DB { return validParts().build() }

func TestValidateOK(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatalf("valid DB rejected: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	break_ := func(name string, mutate func(*parts)) {
		p := validParts()
		mutate(p)
		if err := p.build().Validate(); err == nil {
			t.Errorf("%s: violation not caught", name)
		}
	}
	break_("duplicate gab id", func(p *parts) { p.users[1].GabID = 1 })
	break_("duplicate username", func(p *parts) { p.users[1].Username = "alice" })
	break_("dissenter without author id", func(p *parts) { p.users[0].AuthorID = ids.ObjectID{} })
	break_("author id without dissenter", func(p *parts) {
		p.users[1].AuthorID = ids.NewGenerator(9).New()
	})
	break_("deleted non-dissenter", func(p *parts) {
		p.users[1].GabDeleted = true
	})
	break_("comment on unknown url", func(p *parts) {
		p.comments[0].URLID = ids.NewGenerator(9).New()
	})
	break_("comment by unknown author", func(p *parts) {
		p.comments[0].AuthorID = ids.NewGenerator(9).New()
	})
	break_("reply to unknown parent", func(p *parts) {
		p.comments[1].ParentID = ids.NewGenerator(9).New()
	})
	break_("negative votes", func(p *parts) { p.urls[0].Ups = -1 })
	break_("self follow", func(p *parts) {
		p.follows[1] = append(p.follows[1], 1)
	})
	break_("follow unknown", func(p *parts) {
		p.follows[1] = append(p.follows[1], 999)
	})
}

func TestValidateRequiresInit(t *testing.T) {
	db := &DB{}
	if err := db.Validate(); err == nil {
		t.Error("uninitialized DB validated")
	}
}

func TestLookups(t *testing.T) {
	db := buildValid()
	if db.UserByUsername("alice") == nil || db.UserByUsername("nope") != nil {
		t.Error("UserByUsername wrong")
	}
	// Deleted users invisible by Gab ID, visible by username.
	if db.UserByGabID(3) != nil {
		t.Error("deleted user visible via Gab ID")
	}
	if db.UserByUsername("carol") == nil {
		t.Error("deleted user's Dissenter page should persist")
	}
	if db.MaxGabID() != 3 {
		t.Errorf("MaxGabID = %d", db.MaxGabID())
	}
	alice := db.UserByUsername("alice")
	if got := db.HomeURLs(alice.AuthorID, true, true); len(got) != 1 {
		t.Errorf("HomeURLs = %d", len(got))
	}
	if got := db.Followers(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Followers(1) = %v", got)
	}
	if got := db.Following(2); len(got) != 2 {
		t.Errorf("Following(2) = %v", got)
	}
	if allURLs(db)[0].NetVotes() != 1 {
		t.Error("NetVotes wrong")
	}
}

func TestCensus(t *testing.T) {
	c := buildValid().Census()
	if c.GabUsers != 3 || c.DissenterUsers != 2 || c.ActiveUsers != 2 {
		t.Errorf("census = %+v", c)
	}
	if c.Comments != 2 || c.Replies != 1 || c.NSFWComments != 1 || c.OffensiveComments != 0 {
		t.Errorf("census = %+v", c)
	}
	if c.DeletedGabUsers != 1 {
		t.Errorf("deleted = %d", c.DeletedGabUsers)
	}
}

func TestCommentsSortedOnURL(t *testing.T) {
	db := buildValid()
	comments := db.CommentsOnURL(allURLs(db)[0].ID)
	if len(comments) != 2 {
		t.Fatalf("comments = %d", len(comments))
	}
	if !comments[0].ID.Before(comments[1].ID) {
		t.Error("comments not in creation order")
	}
	if comments[0].IsReply() || !comments[1].IsReply() {
		t.Error("IsReply wrong")
	}
}

func TestIncrementalInsert(t *testing.T) {
	db := buildValid()
	gen := ids.NewGenerator(7)
	at := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

	// A submitted URL becomes visible through every read path.
	cu := &CommentURL{ID: gen.NewAt(at), URL: "https://example.com/new", FirstSeen: at}
	got, inserted := db.SubmitURL(cu)
	if !inserted || got != cu {
		t.Fatalf("SubmitURL: got %v inserted=%v", got, inserted)
	}
	if db.URLByString(cu.URL) != cu || db.URLByID(cu.ID) != cu {
		t.Error("submitted URL not indexed")
	}
	// Re-submitting the same address returns the canonical record.
	dup := &CommentURL{ID: gen.NewAt(at), URL: cu.URL, FirstSeen: at}
	if got, inserted := db.SubmitURL(dup); inserted || got != cu {
		t.Errorf("duplicate submit: got %v inserted=%v", got, inserted)
	}

	// An added comment lands on its page in creation order.
	alice := db.UserByUsername("alice")
	c := &Comment{ID: gen.NewAt(at.Add(time.Minute)), URLID: cu.ID,
		AuthorID: alice.AuthorID, Text: "late", CreatedAt: at.Add(time.Minute)}
	db.AddComment(c)
	if page := db.CommentsOnURL(cu.ID); len(page) != 1 || page[0] != c {
		t.Errorf("page after AddComment = %v", page)
	}
	if db.CommentByID(c.ID) != c {
		t.Error("comment not resolvable by ID")
	}
	if err := db.Validate(); err != nil {
		t.Errorf("DB invalid after incremental inserts: %v", err)
	}

	// Votes accumulate on top of the generated baseline.
	first := allURLs(db)[0]
	db.Vote(first.ID, 3, 1)
	if ups, downs := db.Votes(first.ID); ups != 5 || downs != 2 {
		t.Errorf("Votes = %d/%d, want 5/2", ups, downs)
	}
}
