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

// oracleLeaderboard is the full-scan computation: walk every URL, read
// its current tally, sort by net desc / FirstSeen desc / URL asc,
// truncate to LeaderLimit. The write-maintained view must match it
// exactly once writes quiesce.
func oracleLeaderboard(db *DB) []LeaderEntry {
	var entries []LeaderEntry
	db.RangeURLs(func(cu *CommentURL) bool {
		ups, downs := db.Votes(cu.ID)
		entries = append(entries, LeaderEntry{URL: cu, Ups: ups, Downs: downs})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return betterLeader(entries[i], entries[j]) })
	if len(entries) > LeaderLimit {
		entries = entries[:LeaderLimit]
	}
	return entries
}

// checkLeaderboardEquivalence asserts view == oracle, entry for entry.
func checkLeaderboardEquivalence(t *testing.T, db *DB) {
	t.Helper()
	want := oracleLeaderboard(db)
	got := db.Leaderboard()
	if len(got) != len(want) {
		t.Fatalf("leaderboard lists %d URLs, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i].URL != want[i].URL || got[i].Ups != want[i].Ups || got[i].Downs != want[i].Downs {
			t.Fatalf("rank %d:\n  view:   %q ups=%d downs=%d\n  oracle: %q ups=%d downs=%d",
				i, got[i].URL.URL, got[i].Ups, got[i].Downs,
				want[i].URL.URL, want[i].Ups, want[i].Downs)
		}
	}
}

// TestVoteLeaderboardOracleEquivalence drives randomized concurrent
// up/down votes — non-monotone net scores, the regime the bounded
// trend-index argument cannot cover — plus URL submissions, with
// concurrent leaderboard readers, then verifies the write-maintained
// ranking exactly matches the full-scan oracle. Run under -race in CI.
func TestVoteLeaderboardOracleEquivalence(t *testing.T) {
	db, _ := trendsTestDB()

	const (
		writers      = 8
		opsPerWriter = 1500
		distinctURLs = 300 // > LeaderLimit so the overflow tier is exercised
	)
	base := time.Unix(1_600_000_000, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			gen := ids.NewGenerator(uint64(seed) * 0x51F1)
			for i := 0; i < opsPerWriter; i++ {
				// Zipf-ish skew: low-numbered URLs are hot, so the same URL
				// swings up and down the ranking from many goroutines.
				n := rng.Intn(distinctURLs)
				if rng.Intn(3) > 0 {
					n = rng.Intn(1 + distinctURLs/10)
				}
				addr := fmt.Sprintf("https://votes.example/story/%03d", n)
				cu := db.URLByString(addr)
				if cu == nil {
					cu, _ = db.SubmitURL(&CommentURL{
						ID:  gen.NewAt(base.Add(time.Duration(n) * time.Second)),
						URL: addr,
						// Baselines spread the initial nets; some negative.
						Ups:   n % 7,
						Downs: n % 5,
						// Exact FirstSeen collisions so the URL tie-break
						// matters too.
						FirstSeen: base.Add(time.Duration(n%89) * time.Minute),
					})
				}
				// Downvote-leaning mix: rankings must sink as well as climb.
				if rng.Intn(2) == 0 {
					db.Vote(cu.ID, 1, 0)
				} else {
					db.Vote(cu.ID, 0, 1)
				}
			}
		}(int64(w + 1))
	}
	// Concurrent readers: the ranking must stay well-formed (sorted,
	// bounded) while votes are in flight.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				top := db.Leaderboard()
				if len(top) > LeaderLimit {
					t.Errorf("mid-write leaderboard has %d entries", len(top))
					return
				}
				for i := 1; i < len(top); i++ {
					if !betterLeader(top[i-1], top[i]) {
						t.Errorf("mid-write leaderboard out of order at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	checkLeaderboardEquivalence(t, db)
}

// TestVoteUnknownURLDropped pins the validation fix: a vote for an
// unregistered urlID used to accumulate a tally no read path could
// ever surface. It must now be dropped — no tally, no logged event, no
// leaderboard movement — and reported to the caller.
func TestVoteUnknownURLDropped(t *testing.T) {
	db, _ := trendsTestDB()
	gen := ids.NewGenerator(0xBAD)
	known := &CommentURL{
		ID:        gen.NewAt(time.Unix(1_600_000_000, 0)),
		URL:       "https://votes.example/known",
		FirstSeen: time.Unix(1_600_000_000, 0),
	}
	db.SubmitURL(known)
	if !db.Vote(known.ID, 1, 0) {
		t.Fatal("vote for a registered URL rejected")
	}

	phantom := gen.NewAt(time.Unix(1_600_000_100, 0))
	before := db.EventSeq()
	if db.Vote(phantom, 3, 1) {
		t.Fatal("vote for an unknown urlID accepted")
	}
	if db.EventSeq() != before {
		t.Fatal("dropped vote still appended an event")
	}
	if ups, downs := db.Votes(phantom); ups != 0 || downs != 0 {
		t.Fatalf("dropped vote left a tally: %d/%d", ups, downs)
	}
	checkLeaderboardEquivalence(t, db)
}

// TestVoteLeaderboardLateRegistration pins the registration backfill:
// a tally applied before its URL is registered (the replay path — a
// logged VoteCast can precede the URLSubmitted it raced with) must
// surface the moment the URL lands.
func TestVoteLeaderboardLateRegistration(t *testing.T) {
	db, _ := trendsTestDB()
	gen := ids.NewGenerator(0x1A7E2)
	base := time.Unix(1_610_000_000, 0)
	cu := &CommentURL{
		ID:        gen.NewAt(base),
		URL:       "https://votes.example/registered-after-votes",
		FirstSeen: base,
	}
	db.applyVote(cu.ID, 5, 2)
	for _, e := range db.Leaderboard() {
		if e.URL.ID == cu.ID {
			t.Fatal("unregistered URL already on the leaderboard")
		}
	}
	db.SubmitURL(cu)
	top := db.Leaderboard()
	if len(top) == 0 || top[0].URL != cu || top[0].Ups != 5 || top[0].Downs != 2 {
		t.Fatalf("after late registration: %+v, want the URL leading at 5/2", top)
	}
	checkLeaderboardEquivalence(t, db)
}

// TestVoteLeaderboardBulkBuildEquivalence pins that a store built with
// New ranks its baseline tallies identically to the oracle, including
// zero- and negative-net URLs.
func TestVoteLeaderboardBulkBuildEquivalence(t *testing.T) {
	gen := ids.NewGenerator(0xB01D2)
	base := time.Unix(1_550_000_000, 0)
	var urls []*CommentURL
	for n := 0; n < 130; n++ {
		urls = append(urls, &CommentURL{
			ID:        gen.NewAt(base.Add(time.Duration(n) * time.Second)),
			URL:       fmt.Sprintf("https://bulkvotes.example/%03d", n),
			Ups:       (n * 3) % 17,
			Downs:     (n * 5) % 13,
			FirstSeen: base.Add(time.Duration(n%11) * time.Minute),
		})
	}
	db := New(nil, urls, nil, nil)
	checkLeaderboardEquivalence(t, db)
	if got := len(db.Leaderboard()); got != LeaderLimit {
		t.Fatalf("leaderboard lists %d of %d URLs, want %d", got, len(urls), LeaderLimit)
	}
}
