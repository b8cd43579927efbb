package platform

import (
	"sort"
	"sync"
	"sync/atomic"

	"dissenter/internal/ids"
)

// DB is the platform's ground truth: a concurrency-safe sharded store of
// users, commented URLs, comments, votes, and the Gab follower graph.
// Build one with New (synth.Generate does); the HTTP simulators read it
// concurrently while the mutable surfaces — Gab Trends URL submission
// and voting — write through SubmitURL and Vote.
//
// Every index is split across numShards RWMutex-guarded segments keyed
// by ID hash, and maintained incrementally on insert; there is no
// whole-store rebuild. Entity records (*User, *CommentURL, *Comment)
// are treated as immutable once inserted: mutable state that changes at
// serve time (vote tallies) lives in its own sharded index, and no
// slice handed to a reader is ever written where the reader can see:
// the grouped comment listings (per URL, per author) are
// append-in-place with pinned-length readers — see insertSorted — and
// the follow lists are replaced copy-on-write.
//
// Every write method ends in the event-dispatch pipeline (events.go):
// it appends a typed event to the store's log and fans it out to the
// registered materialized views, which is both how the rankings below
// stay write-maintained and how another backend would consume this
// store's mutations (EventsSince → ApplyEvent).
type DB struct {
	// gate serializes writers against checkpoint cuts: every write
	// method holds it for read across its whole body (base-index
	// updates plus dispatch), and Checkpoint holds it for write, so a
	// checkpoint never observes a half-applied mutation and its
	// sequence point covers exactly the events dispatched before it.
	// Writers share it, so it adds no writer-writer serialization.
	gate sync.RWMutex

	mu       sync.RWMutex // guards the entity slices below
	users    []*User
	urls     []*CommentURL
	comments []*Comment

	byGabID          *shardedMap[ids.GabID, *User]
	byUsername       *shardedMap[string, *User]
	byAuthor         *shardedMap[ids.ObjectID, *User]
	urlByID          *shardedMap[ids.ObjectID, *CommentURL]
	urlByURL         *shardedMap[string, *CommentURL]
	commentByID      *shardedMap[ids.ObjectID, *Comment]
	commentsByURL    *shardedMap[ids.ObjectID, []*Comment]
	commentsByAuthor *shardedMap[ids.ObjectID, []*Comment]
	following        *shardedMap[ids.GabID, []ids.GabID]
	followersOf      *shardedMap[ids.GabID, []ids.GabID]
	votes            *shardedMap[ids.ObjectID, voteDelta]

	// The event log and the registered views (events.go). events holds
	// the retained tail; eventBase counts the compacted prefix, so the
	// event at events[i] carries sequence number eventBase+i+1. waiters
	// are AwaitEvents parkers, closed (all of them) by dispatch.
	// seeded records whether New was given construction-time entities —
	// state a pure event stream from sequence 0 would not reproduce, so
	// replication from a seeded store must bootstrap from a snapshot.
	eventMu   sync.Mutex
	events    []Event
	eventBase uint64
	views     []View
	waiters   []chan struct{}
	seeded    bool

	// The write-maintained materialized views, all fed by dispatch:
	// trends ranks URLs by visible comment count per session view
	// (trendindex.go) and leaders ranks URLs by net votes — Figure 5's
	// ordering (voteindex.go). Each keeps sharded counters plus a
	// rankheap order structure, so writes stay O(1)-ish and the ranked
	// reads (TopTrends, Leaderboard) are O(page). pages is the
	// discussion fragment view (pageindex.go): per-URL per-view
	// pre-escaped comment streams — lazily materialized on first
	// render, write-maintained afterwards.
	trends  *trendIndex
	leaders *voteIndex
	pages   *pageIndex

	maxGabID atomic.Int64
}

// voteDelta accumulates serve-time votes on top of a URL's generated
// Ups/Downs baseline. seq counts the updates applied to this tally —
// the per-URL version the vote leaderboard uses to discard ranking
// offers that lost a race (voteindex.go); it is handed out under the
// tally's shard lock, so it totally orders one URL's tally states.
type voteDelta struct {
	ups, downs int
	seq        uint64
}

// New builds an indexed store from raw entity slices. The slices are
// retained (and appended to by the write paths); callers hand over
// ownership of the slice headers AND their backing arrays — two stores
// must never be built from slices sharing one backing array, though
// sharing the immutable records themselves is fine (a replay target's
// seed does) — and must not mutate the records afterwards. Any
// argument may be nil.
//
// Construction happens before the store is shared, so it bulk-builds
// the grouped indexes — append everything, sort each list once —
// instead of going through the insert paths, which would search each
// comment listing per comment and cost O(k²) on the largest follower
// list. The base indexes do not read one another, so each is built on
// a goroutine of its own into shard maps sized up front; the trends and
// leaderboard views read only those, so they are rebuilt side by side
// once all are done.
func New(users []*User, urls []*CommentURL, comments []*Comment, follows map[ids.GabID][]ids.GabID) *DB {
	db := &DB{
		users:    users,
		urls:     urls,
		comments: comments,
		votes:    newShardedMap[ids.ObjectID, voteDelta](hashObjectID, 0),
		trends:   newTrendIndex(),
		leaders:  newVoteIndex(),
		pages:    newPageIndex(),
		seeded:   len(users) > 0 || len(urls) > 0 || len(comments) > 0 || len(follows) > 0,
	}
	parallel(
		func() {
			authors := 0
			for _, u := range users {
				if u.HasDissenter {
					authors++
				}
			}
			db.byGabID = newShardedMap[ids.GabID, *User](hashGabID, len(users))
			db.byUsername = newShardedMap[string, *User](hashString, len(users))
			db.byAuthor = newShardedMap[ids.ObjectID, *User](hashObjectID, authors)
			for _, u := range users {
				db.indexUser(u)
			}
		},
		func() {
			db.urlByID = newShardedMap[ids.ObjectID, *CommentURL](hashObjectID, len(urls))
			db.urlByURL = newShardedMap[string, *CommentURL](hashString, len(urls))
			for _, cu := range urls {
				db.urlByID.set(cu.ID, cu)
				db.urlByURL.set(cu.URL, cu)
			}
		},
		func() {
			db.commentByID = newShardedMap[ids.ObjectID, *Comment](hashObjectID, len(comments))
			for _, c := range comments {
				db.commentByID.set(c.ID, c)
			}
		},
		func() {
			db.commentsByURL = groupComments(comments, func(c *Comment) ids.ObjectID { return c.URLID })
		},
		func() {
			db.commentsByAuthor = groupComments(comments, func(c *Comment) ids.ObjectID { return c.AuthorID })
		},
		func() {
			db.following = newShardedMap[ids.GabID, []ids.GabID](hashGabID, len(follows))
			followers := make(map[ids.GabID][]ids.GabID)
			for from, tos := range follows {
				db.following.set(from, tos)
				for _, to := range tos {
					followers[to] = append(followers[to], from)
				}
			}
			db.followersOf = newShardedMap[ids.GabID, []ids.GabID](hashGabID, len(followers))
			for id, list := range followers {
				sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
				db.followersOf.set(id, list)
			}
		},
	)
	// The built-in views are attached before any write can dispatch, and
	// each derives its state from the just-built base indexes through
	// the Rebuild hook RegisterView would call. The page view is lazy
	// and starts empty.
	db.views = []View{db.trends, db.leaders, db.pages}
	parallel(func() { db.trends.Rebuild(db) }, func() { db.leaders.Rebuild(db) })
	return db
}

// parallel runs each f on a goroutine of its own and returns once all
// have returned.
func parallel(fs ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fs))
	for _, f := range fs {
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// groupComments builds a listing index: every comment under its key,
// each list sorted once into ID (creation) order.
func groupComments(comments []*Comment, key func(*Comment) ids.ObjectID) *shardedMap[ids.ObjectID, []*Comment] {
	groups := make(map[ids.ObjectID][]*Comment)
	for _, c := range comments {
		k := key(c)
		groups[k] = append(groups[k], c)
	}
	m := newShardedMap[ids.ObjectID, []*Comment](hashObjectID, len(groups))
	for k, list := range groups {
		sort.Slice(list, func(i, j int) bool { return list[i].ID.Before(list[j].ID) })
		m.set(k, list)
	}
	return m
}

// Seeded reports whether the store was built from construction-time
// entities (New with non-empty arguments). A seeded store's full state
// is NOT reproducible by replaying its event stream from sequence 0 —
// the seed entities were never events — so replication consumers must
// bootstrap from a snapshot (Checkpoint) instead of streaming from the
// beginning; the replication publisher enforces this.
func (db *DB) Seeded() bool { return db.seeded }

// initialized reports whether the DB was built with New; the zero DB has
// no indexes and rejects everything.
func (db *DB) initialized() bool { return db.byGabID != nil }

// --- incremental inserts ------------------------------------------------

// indexUser writes a user's point-lookup entries and advances maxGabID.
func (db *DB) indexUser(u *User) {
	db.byGabID.set(u.GabID, u)
	db.byUsername.set(u.Username, u)
	if u.HasDissenter {
		db.byAuthor.set(u.AuthorID, u)
	}
	for {
		cur := db.maxGabID.Load()
		if int64(u.GabID) <= cur || db.maxGabID.CompareAndSwap(cur, int64(u.GabID)) {
			break
		}
	}
}

// AddUser indexes a user. Inserting a duplicate Gab ID or username
// overwrites the index entry; Validate reports the corruption. The
// user is fully indexed before the event dispatches, so a view
// backfilling state keyed to this user (follower counts recorded
// before the account was registered) always resolves the record.
func (db *DB) AddUser(u *User) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.indexUser(u)
	db.mu.Lock()
	db.users = append(db.users, u)
	db.mu.Unlock()
	db.dispatch(UserAdded{User: u})
}

// SubmitURL registers cu unless a URL with the same address already
// exists, returning the canonical record. This is the Gab Trends
// /discussion/begin write path: at most one caller wins per address, and
// the winner's record is fully indexed before it becomes visible via
// URLByString. The loser's minted ID is discarded.
func (db *DB) SubmitURL(cu *CommentURL) (canonical *CommentURL, inserted bool) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	canonical, inserted = db.urlByURL.getOrCreate(cu.URL, func() *CommentURL {
		db.urlByID.set(cu.ID, cu)
		db.mu.Lock()
		db.urls = append(db.urls, cu)
		db.mu.Unlock()
		return cu
	})
	if inserted {
		// The views backfill any state recorded against this URL before
		// it was registered (the store API does not force a
		// registration-first order) — see trendIndex.apply.
		db.dispatch(URLSubmitted{URL: canonical})
	}
	return canonical, inserted
}

// AddComment indexes a comment. The per-URL listing is written last of
// the base indexes, so a comment visible on its page always resolves
// via CommentByID. The event (and with it the trends ranking) is
// dispatched before AddComment returns, so a caller that invalidates
// cached trends renderings afterwards never lets a reader re-render
// the pre-insert ranking.
func (db *DB) AddComment(c *Comment) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.commentByID.set(c.ID, c)
	db.commentsByAuthor.update(c.AuthorID, func(old []*Comment) []*Comment {
		return insertSorted(old, c)
	})
	db.mu.Lock()
	db.comments = append(db.comments, c)
	db.mu.Unlock()
	db.commentsByURL.update(c.URLID, func(old []*Comment) []*Comment {
		return insertSorted(old, c)
	})
	db.dispatch(CommentAdded{Comment: c})
}

// insertSorted returns old with c inserted in ID (creation) order. IDs
// are minted in creation order, so c almost always sorts last and is
// appended into the list's spare capacity, exactly as db.comments and
// the event log grow: a reader holds a header that pins its length, so
// the slot written is one no reader can see, and the cost is O(1)
// amortised instead of a copy of the page. Only a genuine middle
// insert (a replica applying events the primary logged out of ID
// order) copies, because the old backing array is never shifted under
// the readers still iterating it.
func insertSorted(old []*Comment, c *Comment) []*Comment {
	if n := len(old); n == 0 || !c.ID.Before(old[n-1].ID) {
		return append(old, c)
	}
	i := sort.Search(len(old), func(i int) bool { return c.ID.Before(old[i].ID) })
	out := make([]*Comment, 0, len(old)+1)
	out = append(out, old[:i]...)
	out = append(out, c)
	out = append(out, old[i:]...)
	return out
}

// AddFollow records a follow edge and maintains the reverse (followers)
// index incrementally — Followers is a lookup, not an edge scan. Both
// directions live on the sharded-map machinery (the forward index used
// to hide under the store-wide mutex, stalling every entity-slice
// reader on an unrelated edge insert); the forward list keeps arrival
// order, the reverse list ascending-ID order, both copy-on-write.
func (db *DB) AddFollow(from, to ids.GabID) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.following.update(from, func(old []ids.GabID) []ids.GabID {
		out := make([]ids.GabID, 0, len(old)+1)
		out = append(out, old...)
		return append(out, to)
	})
	db.followersOf.update(to, func(old []ids.GabID) []ids.GabID {
		i := sort.Search(len(old), func(i int) bool { return old[i] >= from })
		out := make([]ids.GabID, 0, len(old)+1)
		out = append(out, old[:i]...)
		out = append(out, from)
		out = append(out, old[i:]...)
		return out
	})
	db.dispatch(FollowAdded{From: from, To: to})
}

// Vote adds serve-time up/down votes to a URL's tally. The URL must be
// registered: a tally for an unknown urlID would accumulate invisibly
// (no read path can ever surface it — the discussion page resolves the
// URL first), so the write is dropped and Vote reports false. The HTTP
// vote path resolves the record before calling Vote, and records are
// never removed, so a false return there is impossible.
func (db *DB) Vote(urlID ids.ObjectID, ups, downs int) bool {
	if _, ok := db.urlByID.get(urlID); !ok {
		return false
	}
	db.applyVote(urlID, ups, downs)
	return true
}

// applyVote is Vote past validation — also the replay entry point,
// because a log may order a VoteCast before the URLSubmitted it raced
// with (the vote index backfills the tally at registration).
func (db *DB) applyVote(urlID ids.ObjectID, ups, downs int) {
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.votes.update(urlID, func(d voteDelta) voteDelta {
		d.ups += ups
		d.downs += downs
		d.seq++
		return d
	})
	db.dispatch(VoteCast{URLID: urlID, Ups: ups, Downs: downs})
}

// Votes returns the URL's current tally: the generated baseline plus any
// serve-time votes. Unknown URLs count zero.
func (db *DB) Votes(urlID ids.ObjectID) (ups, downs int) {
	if cu, ok := db.urlByID.get(urlID); ok {
		ups, downs = cu.Ups, cu.Downs
	}
	d, _ := db.votes.get(urlID)
	return ups + d.ups, downs + d.downs
}

// --- point lookups ------------------------------------------------------

// UserByGabID returns the user with the given Gab ID, or nil. Deleted Gab
// accounts return nil — the API no longer knows them.
func (db *DB) UserByGabID(id ids.GabID) *User {
	u, _ := db.byGabID.get(id)
	if u == nil || u.GabDeleted {
		return nil
	}
	return u
}

// UserByUsername returns the user (including Gab-deleted ones, whose
// Dissenter pages persist), or nil.
func (db *DB) UserByUsername(name string) *User {
	u, _ := db.byUsername.get(name)
	return u
}

// UserByAuthorID resolves a Dissenter author-id.
func (db *DB) UserByAuthorID(id ids.ObjectID) *User {
	u, _ := db.byAuthor.get(id)
	return u
}

// MaxGabID returns the largest allocated Gab ID (enumeration's endpoint).
func (db *DB) MaxGabID() ids.GabID { return ids.GabID(db.maxGabID.Load()) }

// URLByID resolves a commenturl-id.
func (db *DB) URLByID(id ids.ObjectID) *CommentURL {
	cu, _ := db.urlByID.get(id)
	return cu
}

// URLByString resolves a raw URL.
func (db *DB) URLByString(raw string) *CommentURL {
	cu, _ := db.urlByURL.get(raw)
	return cu
}

// CommentsOnURL returns the comments of one comment page in creation
// order. The slice is a stable snapshot; callers must not modify it.
// Its capacity is clipped to its length (the EventsSince idiom), so a
// caller appending to it reallocates instead of racing AddComment for
// the listing's spare backing array.
func (db *DB) CommentsOnURL(id ids.ObjectID) []*Comment {
	cs, _ := db.commentsByURL.get(id)
	return cs[:len(cs):len(cs)]
}

// CommentByID resolves a comment-id.
func (db *DB) CommentByID(id ids.ObjectID) *Comment {
	c, _ := db.commentByID.get(id)
	return c
}

// CommentsByAuthor returns all comments by one Dissenter author in
// creation order. The slice is a stable snapshot, capacity-clipped like
// CommentsOnURL's; callers must not modify it.
func (db *DB) CommentsByAuthor(id ids.ObjectID) []*Comment {
	cs, _ := db.commentsByAuthor.get(id)
	return cs[:len(cs):len(cs)]
}

// Following returns the Gab users id follows, in edge-arrival order.
// The slice is a stable snapshot; callers must not modify it.
func (db *DB) Following(id ids.GabID) []ids.GabID {
	out, _ := db.following.get(id)
	return out
}

// Followers returns the Gab users following id in ascending order,
// served from the incrementally maintained reverse index. The slice is a
// stable snapshot; callers must not modify it.
func (db *DB) Followers(id ids.GabID) []ids.GabID {
	out, _ := db.followersOf.get(id)
	return out
}

// --- zero-copy iteration ------------------------------------------------

// The Range accessors walk the store without materializing anything:
// they pin the append-only insertion log's current length under a
// brief read lock, then iterate outside any lock — records are
// immutable once inserted and the log is never shifted, so the walk is
// safe against concurrent writers and sees a consistent prefix of the
// store. Handlers and full-corpus analyses should iterate this way;
// Checkpoint is the consistent cut for bulk export.

// RangeUsers calls f for each user in insertion order until f returns
// false. Users inserted after the call starts are not visited.
func (db *DB) RangeUsers(f func(*User) bool) {
	db.mu.RLock()
	users := db.users
	db.mu.RUnlock()
	for _, u := range users {
		if !f(u) {
			return
		}
	}
}

// RangeURLs calls f for each comment-page URL in insertion order until
// f returns false.
func (db *DB) RangeURLs(f func(*CommentURL) bool) {
	db.mu.RLock()
	urls := db.urls
	db.mu.RUnlock()
	for _, cu := range urls {
		if !f(cu) {
			return
		}
	}
}

// RangeComments calls f for each comment in insertion order until f
// returns false.
func (db *DB) RangeComments(f func(*Comment) bool) {
	db.mu.RLock()
	comments := db.comments
	db.mu.RUnlock()
	for _, c := range comments {
		if !f(c) {
			return
		}
	}
}

// RangeCommentsOnURL calls f for each comment on one page in creation
// order until f returns false — the iteration form of CommentsOnURL
// for render paths that stop early (visibility probes).
func (db *DB) RangeCommentsOnURL(id ids.ObjectID, f func(*Comment) bool) {
	cs, _ := db.commentsByURL.get(id)
	for _, c := range cs {
		if !f(c) {
			return
		}
	}
}

// RangeFollows calls f for each user with at least one outgoing follow
// edge, passing their followed list in edge-arrival order, until f
// returns false. The edge slices are stable snapshots; f must not
// modify them. Shards are visited in turn, so edges inserted mid-call
// on an already-visited shard are missed — like the other Range
// accessors this is a streaming walk, not a consistent cut (Checkpoint
// is the consistent one).
func (db *DB) RangeFollows(f func(from ids.GabID, tos []ids.GabID) bool) {
	db.following.forEach(f)
}

// --- derived listings ---------------------------------------------------

// DissenterUsers returns users with Dissenter accounts.
func (db *DB) DissenterUsers() []*User {
	var out []*User
	db.RangeUsers(func(u *User) bool {
		if u.HasDissenter {
			out = append(out, u)
		}
		return true
	})
	return out
}

// ActiveUsers returns Dissenter users with at least one comment or reply.
func (db *DB) ActiveUsers() []*User {
	var out []*User
	db.RangeUsers(func(u *User) bool {
		if u.HasDissenter && len(db.CommentsByAuthor(u.AuthorID)) > 0 {
			out = append(out, u)
		}
		return true
	})
	return out
}
