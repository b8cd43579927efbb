package platform

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// TestConcurrentReadersOneWriter is the race-regression test for the
// sharded store: many reader goroutines exercise every read path while
// one writer streams in submissions, comments, follows, and votes. Under
// `go test -race` this fails against any unsynchronized implementation
// (the pre-sharding DB was a plain bundle of maps rebuilt by a full
// reindex, which this access pattern tears apart).
//
// It is also the oracle for the append-in-place comment listings: the
// writer mostly tail-appends (creation-ordered IDs) and every seventh
// post carries an older ID, a genuine middle insert; each reader holds
// a page's listing across a whole round of other reads and requires it
// sorted, unchanged element for element when it looks again, and
// capacity-clipped, so appending to it reallocates instead of writing
// into the array the store appends to.
func TestConcurrentReadersOneWriter(t *testing.T) {
	db := buildValid()
	alice := db.UserByUsername("alice")
	gen := ids.NewGenerator(99)
	t0 := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

	const (
		writes  = 400
		readers = 8
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	outOfOrder := 0 // the writer's until wg.Wait

	// One writer: every mutable surface of the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writes; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			cu, _ := db.SubmitURL(&CommentURL{
				ID:        gen.NewAt(at),
				URL:       fmt.Sprintf("https://example.com/race/%d", i%50),
				FirstSeen: at,
			})
			db.AddComment(&Comment{
				ID:        gen.NewAt(at.Add(time.Second)),
				URLID:     cu.ID,
				AuthorID:  alice.AuthorID,
				Text:      "concurrent",
				CreatedAt: at.Add(time.Second),
			})
			if i%7 == 0 && i >= 125 {
				// Minted between this page's earlier comments (one per
				// 50 s, the first a second after the URL was seen):
				// sorts into the middle of its listing.
				outOfOrder++
				db.AddComment(&Comment{
					ID:        gen.NewAt(at.Add(-75 * time.Second)),
					URLID:     cu.ID,
					AuthorID:  alice.AuthorID,
					Text:      "out of order",
					CreatedAt: at,
				})
			}
			db.Vote(cu.ID, 1, 0)
			if i%10 == 0 {
				db.AddUser(&User{
					GabID:     ids.GabID(100 + i),
					Username:  fmt.Sprintf("racer%d", i),
					CreatedAt: at,
				})
				db.AddFollow(ids.GabID(100+i), 1)
			}
			if i%32 == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Readers: every read path, including full-slice snapshots.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held, heldCopy []*Comment // a listing kept across a round
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for k := range held {
					if held[k] != heldCopy[k] {
						t.Errorf("reader %d: held listing changed at %d of %d", r, k, len(held))
						break
					}
				}
				_ = db.UserByUsername("alice")
				_ = db.UserByGabID(ids.GabID(1 + i%120))
				_ = db.MaxGabID()
				if cu := db.URLByString(fmt.Sprintf("https://example.com/race/%d", i%50)); cu != nil {
					held = db.CommentsOnURL(cu.ID)
					heldCopy = append(heldCopy[:0], held...)
					for k, c := range held {
						if k > 0 && c.ID.Before(held[k-1].ID) {
							t.Errorf("reader %d: listing out of order at %d of %d", r, k, len(held))
							break
						}
					}
					if n := len(held); n > 0 {
						if grown := append(held, held[0]); &grown[0] == &held[0] {
							t.Errorf("reader %d: append to a returned listing wrote into the store's array", r)
						}
					}
					var last *Comment
					db.RangeCommentsOnURL(cu.ID, func(c *Comment) bool {
						if last != nil && c.ID.Before(last.ID) {
							t.Errorf("reader %d: RangeCommentsOnURL out of order", r)
							return false
						}
						last = c
						return true
					})
					_, _ = db.Votes(cu.ID)
				}
				_ = db.CommentsByAuthor(alice.AuthorID)
				_ = db.HomeURLs(alice.AuthorID, true, true)
				_ = db.Followers(1)
				_ = db.Following(ids.GabID(1 + i%120))
				if i%17 == 0 {
					_ = db.Census()
					_ = allUsers(db)
					_ = allComments(db)
					_ = allFollows(db)
				}
			}
		}(r)
	}
	wg.Wait()

	// The store must end structurally sound and fully indexed.
	if err := db.Validate(); err != nil {
		t.Fatalf("store invalid after concurrent load: %v", err)
	}
	for i := 0; i < 50; i++ {
		raw := fmt.Sprintf("https://example.com/race/%d", i)
		cu := db.URLByString(raw)
		if cu == nil {
			t.Fatalf("submitted URL %q lost", raw)
		}
		if db.URLByID(cu.ID) != cu {
			t.Fatalf("URL %q not resolvable by ID", raw)
		}
		if len(db.CommentsOnURL(cu.ID)) == 0 {
			t.Fatalf("URL %q lost its comments", raw)
		}
	}
	if got, want := len(allComments(db)), 2+writes+outOfOrder; got != want || outOfOrder == 0 {
		t.Fatalf("comments = %d, want %d", got, want)
	}
}

// TestConcurrentSubmitIdempotent checks that racing submissions of the
// same address converge on one canonical record.
func TestConcurrentSubmitIdempotent(t *testing.T) {
	db := buildValid()
	const goroutines = 16
	results := make([]*CommentURL, goroutines)
	var inserted atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := ids.NewGenerator(uint64(1000 + i))
			<-start
			cu, won := db.SubmitURL(&CommentURL{
				ID:        gen.New(),
				URL:       "https://example.com/contended",
				FirstSeen: time.Now(),
			})
			results[i] = cu
			if won {
				inserted.Add(1)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if n := inserted.Load(); n != 1 {
		t.Fatalf("inserted %d times, want exactly 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different canonical record", i)
		}
	}
	if len(allURLs(db)) != 2 {
		t.Fatalf("URLs = %d, want 2", len(allURLs(db)))
	}
}
