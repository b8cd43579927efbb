// Package platform holds the ground-truth database of the simulated
// Gab + Dissenter deployment: users, commented URLs, comments/replies,
// votes, and the Gab follower graph. The HTTP simulators in
// internal/gabapi and internal/dissenterweb render this database; the
// crawlers in internal/gabcrawl and internal/dissentercrawl then try to
// reconstruct it from the outside, exactly as the paper's measurement
// campaign reconstructed the real platform.
//
// The store (DB) is safe for heavy concurrent use: every lookup index is
// hash-sharded across independently RWMutex-guarded segments and
// maintained incrementally on insert, so simulators can serve many
// crawler clients while Gab Trends submissions and votes stream in. The
// grouped comment indexes (per URL, per author) are append-in-place
// with pinned-length readers: a post writes one slot past every slice
// header handed out, readers get capacity-clipped headers, and only an
// out-of-order ID copies the listing. See store.go for the write paths
// and the snapshot discipline, and events.go for the event-dispatch
// pipeline every write ends in — the seam that feeds the materialized
// views (trendindex.go, voteindex.go, pageindex.go) and makes the
// mutation history replayable (DB.EventsSince → DB.ApplyEvent).
package platform

import (
	"fmt"
	"time"

	"dissenter/internal/ids"
)

// UserFlags are the per-account capability and status flags the paper
// mines from the hidden commentAuthor JavaScript (Table 1, left half).
type UserFlags struct {
	CanLogin    bool `json:"canLogin"`
	CanPost     bool `json:"canPost"`
	CanReport   bool `json:"canReport"`
	CanChat     bool `json:"canChat"`
	CanVote     bool `json:"canVote"`
	IsBanned    bool `json:"isBanned"`
	IsAdmin     bool `json:"isAdmin"`
	IsModerator bool `json:"isModerator"`
	IsPro       bool `json:"is_pro"`
	IsDonor     bool `json:"is_donor"`
	IsInvestor  bool `json:"is_investor"`
	IsPremium   bool `json:"is_premium"`
	IsTippable  bool `json:"is_tippable"`
	IsPrivate   bool `json:"is_private"`
	Verified    bool `json:"verified"`
}

// ViewFilters are the comment view-filter preferences (Table 1, right
// half). NSFW and Offensive default to off, which is what makes the
// shadow overlay invisible to ~85% of users.
type ViewFilters struct {
	Pro       bool `json:"pro"`
	Verified  bool `json:"verified"`
	Standard  bool `json:"standard"`
	NSFW      bool `json:"nsfw"`
	Offensive bool `json:"offensive"`
}

// User is one Gab account, which may or may not also hold a Dissenter
// account. Users are immutable once inserted into a DB.
type User struct {
	GabID       ids.GabID
	Username    string
	DisplayName string
	Bio         string
	CreatedAt   time.Time

	// HasDissenter marks the ~8% of Gab users with Dissenter accounts.
	HasDissenter bool
	// AuthorID is the Dissenter author-id (zero unless HasDissenter).
	AuthorID ids.ObjectID
	// GabDeleted marks accounts whose Gab side was deleted by the owner;
	// their Dissenter comments remain but they can no longer log in.
	GabDeleted bool

	Flags    UserFlags
	Filters  ViewFilters
	Language string // hidden commentAuthor metadata
}

// CommentURL is one URL with a Dissenter comment page. Records are
// immutable once inserted into a DB; Ups/Downs are the generated
// baseline tally, and serve-time votes accumulate in the store's sharded
// vote index (DB.Vote / DB.Votes).
type CommentURL struct {
	ID          ids.ObjectID
	URL         string
	Title       string
	Description string
	Ups, Downs  int
	FirstSeen   time.Time
}

// NetVotes returns ups minus downs, the quantity Figure 5 plots.
func (u *CommentURL) NetVotes() int { return u.Ups - u.Downs }

// Comment is one comment or reply, immutable once inserted into a DB.
type Comment struct {
	ID        ids.ObjectID
	URLID     ids.ObjectID
	AuthorID  ids.ObjectID
	ParentID  ids.ObjectID // zero for top-level comments
	Text      string
	CreatedAt time.Time
	// NSFW is the author-applied label; Offensive is the platform-applied
	// label. Either hides the comment from non-opted-in viewers.
	NSFW      bool
	Offensive bool
}

// IsReply reports whether the comment answers another comment.
func (c *Comment) IsReply() bool { return !c.ParentID.IsZero() }

// Validate checks the database's structural invariants. A generated DB
// must always pass; the property tests lean on this.
func (db *DB) Validate() error {
	if !db.initialized() {
		return fmt.Errorf("platform: DB not initialized; build it with New")
	}
	seenGab := map[ids.GabID]bool{}
	seenName := map[string]bool{}
	var err error
	db.RangeUsers(func(u *User) bool {
		switch {
		case !u.GabID.Valid():
			err = fmt.Errorf("platform: user %q has invalid Gab ID %d", u.Username, u.GabID)
		case seenGab[u.GabID]:
			err = fmt.Errorf("platform: duplicate Gab ID %d", u.GabID)
		case u.Username == "":
			err = fmt.Errorf("platform: user with Gab ID %d has empty username", u.GabID)
		case seenName[u.Username]:
			err = fmt.Errorf("platform: duplicate username %q", u.Username)
		case u.HasDissenter && u.AuthorID.IsZero():
			err = fmt.Errorf("platform: dissenter user %q lacks author-id", u.Username)
		case !u.HasDissenter && !u.AuthorID.IsZero():
			err = fmt.Errorf("platform: non-dissenter user %q has author-id", u.Username)
		case u.GabDeleted && !u.HasDissenter:
			err = fmt.Errorf("platform: deleted Gab user %q without Dissenter account is unobservable", u.Username)
		}
		seenGab[u.GabID] = true
		seenName[u.Username] = true
		return err == nil
	})
	if err != nil {
		return err
	}
	db.RangeURLs(func(cu *CommentURL) bool {
		switch {
		case cu.ID.IsZero():
			err = fmt.Errorf("platform: URL %q has zero id", cu.URL)
		case cu.URL == "":
			err = fmt.Errorf("platform: URL %s has empty address", cu.ID)
		case cu.Ups < 0 || cu.Downs < 0:
			err = fmt.Errorf("platform: URL %q has negative votes", cu.URL)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	db.RangeComments(func(c *Comment) bool {
		cu := db.URLByID(c.URLID)
		if cu == nil {
			err = fmt.Errorf("platform: comment %s references unknown URL %s", c.ID, c.URLID)
			return false
		}
		if db.UserByAuthorID(c.AuthorID) == nil {
			err = fmt.Errorf("platform: comment %s references unknown author %s", c.ID, c.AuthorID)
			return false
		}
		if !c.ParentID.IsZero() {
			parent := db.CommentByID(c.ParentID)
			if parent == nil {
				err = fmt.Errorf("platform: reply %s references unknown parent %s", c.ID, c.ParentID)
				return false
			}
			if parent.URLID != c.URLID {
				err = fmt.Errorf("platform: reply %s crosses comment pages", c.ID)
				return false
			}
		}
		if c.ID.Time().Before(cu.FirstSeen) {
			err = fmt.Errorf("platform: comment %s predates its URL's first-seen time", c.ID)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	db.RangeFollows(func(follower ids.GabID, following []ids.GabID) bool {
		if _, ok := db.byGabID.get(follower); !ok {
			err = fmt.Errorf("platform: follow edge from unknown user %d", follower)
			return false
		}
		for _, f := range following {
			if _, ok := db.byGabID.get(f); !ok {
				err = fmt.Errorf("platform: follow edge to unknown user %d", f)
				return false
			}
			if f == follower {
				err = fmt.Errorf("platform: self-follow by %d", follower)
				return false
			}
		}
		return true
	})
	return err
}

// Stats is a cheap census of the database used by tests and reports.
type Stats struct {
	GabUsers          int
	DissenterUsers    int
	ActiveUsers       int
	Comments          int
	Replies           int
	URLs              int
	NSFWComments      int
	OffensiveComments int
	DeletedGabUsers   int
}

// Census counts the headline quantities.
func (db *DB) Census() Stats {
	var s Stats
	db.RangeUsers(func(u *User) bool {
		s.GabUsers++
		if u.HasDissenter {
			s.DissenterUsers++
			if len(db.CommentsByAuthor(u.AuthorID)) > 0 {
				s.ActiveUsers++
			}
		}
		if u.GabDeleted {
			s.DeletedGabUsers++
		}
		return true
	})
	db.RangeURLs(func(*CommentURL) bool {
		s.URLs++
		return true
	})
	db.RangeComments(func(c *Comment) bool {
		s.Comments++
		if c.IsReply() {
			s.Replies++
		}
		if c.NSFW {
			s.NSFWComments++
		}
		if c.Offensive {
			s.OffensiveComments++
		}
		return true
	})
	return s
}
