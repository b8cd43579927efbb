package platform

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// replaySeed builds the construction-time entities for a replay test.
// Each call returns fresh slices (New retains and appends to them, so
// two stores must never share a backing array) over shared immutable
// entity records.
func replaySeed() ([]*User, []*CommentURL, []*Comment, map[ids.GabID][]ids.GabID) {
	gen := ids.NewGenerator(0x5EED)
	base := time.Unix(1_500_000_000, 0)
	var users []*User
	for i := 1; i <= 20; i++ {
		users = append(users, &User{
			GabID:        ids.GabID(i),
			Username:     fmt.Sprintf("replayer-%02d", i),
			HasDissenter: true,
			AuthorID:     gen.NewAt(base),
			CreatedAt:    base,
		})
	}
	var urls []*CommentURL
	for n := 0; n < 40; n++ {
		urls = append(urls, &CommentURL{
			ID:        gen.NewAt(base.Add(time.Duration(n) * time.Second)),
			URL:       fmt.Sprintf("https://replay.example/%03d", n),
			Ups:       n % 6,
			Downs:     n % 4,
			FirstSeen: base.Add(time.Duration(n%9) * time.Minute),
		})
	}
	var comments []*Comment
	for n := 0; n < 100; n++ {
		comments = append(comments, &Comment{
			ID:        gen.NewAt(base.Add(time.Hour)),
			URLID:     urls[n%len(urls)].ID,
			AuthorID:  users[n%len(users)].AuthorID,
			Text:      "seed comment",
			CreatedAt: base.Add(time.Hour),
			NSFW:      n%7 == 0,
			Offensive: n%11 == 0,
		})
	}
	follows := map[ids.GabID][]ids.GabID{
		1: {2, 3}, 2: {1}, 5: {1, 2, 3},
	}
	return users, urls, comments, follows
}

// freshReplayTarget builds a store from the same seed entities with
// private slice headers.
func freshReplayTarget() *DB {
	users, urls, comments, follows := replaySeed()
	return New(users, urls, comments, follows)
}

// mutateForReplay drives every event type through a store: concurrent
// writers so the log records a genuinely raced interleaving, including
// comments posted to URLs other writers are registering.
func mutateForReplay(db *DB) {
	base := time.Unix(1_520_000_000, 0)
	authors := db.DissenterUsers()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			gen := ids.NewGenerator(uint64(seed) * 0xACE1)
			for i := 0; i < 400; i++ {
				switch rng.Intn(5) {
				case 0:
					n := rng.Intn(60)
					addr := fmt.Sprintf("https://replay.example/live/%03d", n)
					if db.URLByString(addr) == nil {
						db.SubmitURL(&CommentURL{
							ID:        gen.NewAt(base.Add(time.Duration(n) * time.Second)),
							URL:       addr,
							FirstSeen: base.Add(time.Duration(n%13) * time.Minute),
						})
					}
				case 1:
					urls := allURLs(db)
					cu := urls[rng.Intn(len(urls))]
					db.AddComment(&Comment{
						ID:        gen.NewAt(base.Add(time.Hour)),
						URLID:     cu.ID,
						AuthorID:  authors[rng.Intn(len(authors))].AuthorID,
						Text:      "replayed comment",
						CreatedAt: base.Add(time.Hour),
						NSFW:      rng.Intn(5) == 0,
						Offensive: rng.Intn(6) == 0,
					})
				case 2:
					urls := allURLs(db)
					cu := urls[rng.Intn(len(urls))]
					if rng.Intn(2) == 0 {
						db.Vote(cu.ID, 1, 0)
					} else {
						db.Vote(cu.ID, 0, 1)
					}
				case 3:
					from := ids.GabID(1 + rng.Intn(20))
					to := ids.GabID(1 + rng.Intn(20))
					if from != to {
						db.AddFollow(from, to)
					}
				case 4:
					id := ids.GabID(1000 + int(seed)*1000 + i)
					db.AddUser(&User{
						GabID:     id,
						Username:  fmt.Sprintf("late-%d", id),
						CreatedAt: base,
					})
					db.AddFollow(ids.GabID(1+rng.Intn(20)), id)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// viewFingerprint flattens every materialized view plus the vote
// tallies into a comparable string.
func viewFingerprint(db *DB) string {
	out := ""
	for _, view := range []struct{ nsfw, off bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		out += fmt.Sprintf("trends[%v,%v]:", view.nsfw, view.off)
		for _, e := range db.TopTrends(view.nsfw, view.off) {
			out += fmt.Sprintf(" %s=%d", e.URL.URL, e.Count)
		}
		out += "\n"
	}
	out += "leaderboard:"
	for _, e := range db.Leaderboard() {
		out += fmt.Sprintf(" %s=%d/%d", e.URL.URL, e.Ups, e.Downs)
	}
	// Concurrent writers land in the entity slices in lock order, not
	// log order, so walk users and URLs by key, not by Range order; each
	// reverse-index list is already ascending.
	users := allUsers(db)
	sort.Slice(users, func(i, j int) bool { return users[i].GabID < users[j].GabID })
	out += "\nfollowers:"
	for _, u := range users {
		if froms := db.Followers(u.GabID); len(froms) > 0 {
			out += fmt.Sprintf(" %d<-%v", u.GabID, froms)
		}
	}
	urls := allURLs(db)
	sort.Slice(urls, func(i, j int) bool { return urls[i].URL < urls[j].URL })
	out += "\ntallies:"
	for _, cu := range urls {
		ups, downs := db.Votes(cu.ID)
		out += fmt.Sprintf(" %s=%d/%d", cu.URL, ups, downs)
	}
	return out
}

// TestReplayDeterminism is the multi-backend seam's contract: the
// event log of a store that took concurrent writes, replayed
// (EventsSince → ApplyEvent) into two fresh stores built from the same
// seed entities, must produce identical view states — and those states
// must match the source store's own views, since the views are
// maintained from the same events the log records. The other way to
// clone a store, Checkpoint → FromCheckpoint, must land on the same
// state at the same sequence point.
func TestReplayDeterminism(t *testing.T) {
	src := freshReplayTarget()
	mutateForReplay(src)

	events, ok := src.EventsSince(0)
	if !ok || len(events) == 0 {
		t.Fatalf("EventsSince(0) = %d events, ok %v on an uncompacted log", len(events), ok)
	}
	dst1 := freshReplayTarget()
	dst2 := freshReplayTarget()
	for _, ev := range events {
		dst1.ApplyEvent(ev)
		dst2.ApplyEvent(ev)
	}
	if dst1.EventSeq() != src.EventSeq() {
		t.Fatalf("replayed store at seq %d, source at %d", dst1.EventSeq(), src.EventSeq())
	}

	fp1, fp2 := viewFingerprint(dst1), viewFingerprint(dst2)
	if fp1 != fp2 {
		t.Fatalf("replaying the same log twice diverged:\n--- first ---\n%s\n--- second ---\n%s", fp1, fp2)
	}
	if srcFP := viewFingerprint(src); srcFP != fp1 {
		t.Fatalf("replayed views diverge from the source store:\n--- source ---\n%s\n--- replayed ---\n%s", srcFP, fp1)
	}

	// The replayed store is a full store, not just views: it must be
	// structurally valid and agree with the oracles directly.
	if err := dst1.Validate(); err != nil {
		t.Fatalf("replayed store invalid: %v", err)
	}
	checkTrendsEquivalence(t, dst1)
	checkLeaderboardEquivalence(t, dst1)
	if src.Census() != dst1.Census() {
		t.Fatalf("census diverged: src %+v, replayed %+v", src.Census(), dst1.Census())
	}

	restored := FromCheckpoint(src.Checkpoint())
	if restored.EventSeq() != src.EventSeq() {
		t.Fatalf("restored store at seq %d, source at %d", restored.EventSeq(), src.EventSeq())
	}
	if fp := viewFingerprint(restored); fp != fp1 {
		t.Fatalf("checkpoint restore diverges from replay:\n--- restored ---\n%s\n--- replayed ---\n%s", fp, fp1)
	}
}

// TestReplayLogOrderIndependence pins the raced-registration case
// explicitly: a log where writes referencing a URL precede its
// URLSubmitted replays to the same views as the well-ordered log.
func TestReplayLogOrderIndependence(t *testing.T) {
	users, _, _, _ := replaySeed()
	gen := ids.NewGenerator(0x0DD)
	base := time.Unix(1_530_000_000, 0)
	cu := &CommentURL{
		ID:        gen.NewAt(base),
		URL:       "https://replay.example/raced",
		FirstSeen: base,
	}
	comment := &Comment{
		ID:        gen.NewAt(base.Add(time.Minute)),
		URLID:     cu.ID,
		AuthorID:  users[0].AuthorID,
		Text:      "raced",
		CreatedAt: base.Add(time.Minute),
	}
	logs := [][]Event{
		{URLSubmitted{URL: cu}, CommentAdded{Comment: comment}, VoteCast{URLID: cu.ID, Ups: 2, Downs: 1}},
		{CommentAdded{Comment: comment}, VoteCast{URLID: cu.ID, Ups: 2, Downs: 1}, URLSubmitted{URL: cu}},
	}
	var fps []string
	for _, log := range logs {
		u, _, _, _ := replaySeed()
		dst := New(u, nil, nil, nil)
		for _, ev := range log {
			ev.applyTo(dst)
		}
		fps = append(fps, viewFingerprint(dst))
	}
	if fps[0] != fps[1] {
		t.Fatalf("log orderings diverged:\n--- ordered ---\n%s\n--- raced ---\n%s", fps[0], fps[1])
	}
}
