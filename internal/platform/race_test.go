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
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = db.UserByUsername("alice")
				_ = db.UserByGabID(ids.GabID(1 + i%120))
				_ = db.MaxGabID()
				if cu := db.URLByString(fmt.Sprintf("https://example.com/race/%d", i%50)); cu != nil {
					for _, c := range db.CommentsOnURL(cu.ID) {
						_ = c.IsReply()
					}
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
	if got := len(allComments(db)); got != 2+writes {
		t.Fatalf("comments = %d, want %d", got, 2+writes)
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
