package pushshift

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user%04d", i)
	}
	return out
}

func TestSimMatchRate(t *testing.T) {
	sim := NewSim(names(2000), 1)
	frac := float64(sim.Users()) / 2000
	if frac < 0.50 || frac > 0.62 {
		t.Errorf("match rate = %.3f, want ≈0.56", frac)
	}
}

// totalComments is the simulated corpus size, the ground truth for what
// a complete fetch returns.
func totalComments(s *Sim) int {
	total := 0
	for _, h := range s.comments {
		total += len(h)
	}
	return total
}

func TestSimDeterministic(t *testing.T) {
	a := NewSim(names(500), 3)
	b := NewSim(names(500), 3)
	if a.Users() != b.Users() || totalComments(a) != totalComments(b) {
		t.Error("sim not deterministic")
	}
}

func TestClientExists(t *testing.T) {
	sim := NewSim(names(300), 2)
	srv := httptest.NewServer(sim)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	found := 0
	for _, name := range names(300) {
		ok, err := c.Exists(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			found++
		}
	}
	if found != sim.Users() {
		t.Errorf("client found %d users, sim has %d", found, sim.Users())
	}
	if ok, _ := c.Exists(ctx, "definitely-not-a-user"); ok {
		t.Error("nonexistent user matched")
	}
}

func TestClientCommentsPaginated(t *testing.T) {
	sim := NewSim(names(400), 4)
	srv := httptest.NewServer(sim)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	// Find a user with a multi-page history.
	var target string
	var want int
	for name, history := range sim.comments {
		if len(history) > PageSize && len(history) > want {
			target, want = name, len(history)
		}
	}
	if target == "" {
		// Accept any commenting user if the tail didn't reach 100.
		for name, history := range sim.comments {
			if len(history) > 0 {
				target, want = name, len(history)
				break
			}
		}
	}
	if target == "" {
		t.Fatal("no commenting users generated")
	}
	got, err := c.Comments(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Errorf("fetched %d comments, want %d", len(got), want)
	}
	seen := map[string]bool{}
	for _, cm := range got {
		if seen[cm.ID] {
			t.Fatalf("duplicate comment %s across pages", cm.ID)
		}
		seen[cm.ID] = true
		if cm.Author != target {
			t.Fatalf("comment author %q, want %q", cm.Author, target)
		}
		if cm.Body == "" {
			t.Fatal("empty comment body")
		}
	}
}

func TestMatchUsers(t *testing.T) {
	sim := NewSim(names(200), 5)
	srv := httptest.NewServer(sim)
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	results, err := c.MatchUsers(context.Background(), names(200), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != sim.Users() {
		t.Errorf("matched %d, want %d", len(results), sim.Users())
	}
	totalFetched := 0
	for _, r := range results {
		totalFetched += len(r.Comments)
	}
	if totalFetched != totalComments(sim) {
		t.Errorf("fetched %d comments, sim has %d", totalFetched, totalComments(sim))
	}
}

func TestSomeMatchedUsersSilent(t *testing.T) {
	sim := NewSim(names(1000), 6)
	silent := 0
	for name := range sim.users {
		if len(sim.comments[name]) == 0 {
			silent++
		}
	}
	frac := float64(silent) / float64(sim.Users())
	if frac < 0.40 || frac > 0.70 {
		t.Errorf("silent matched-user fraction = %.2f, want ≈0.55", frac)
	}
}

func TestCommentRatio(t *testing.T) {
	if r, ok := CommentRatio(10, 30); !ok || r != 0.25 {
		t.Errorf("ratio = %v %v", r, ok)
	}
	if r, ok := CommentRatio(5, 0); !ok || r != 1 {
		t.Errorf("dissenter-only ratio = %v %v", r, ok)
	}
	if r, ok := CommentRatio(0, 5); !ok || r != 0 {
		t.Errorf("reddit-only ratio = %v %v", r, ok)
	}
	if _, ok := CommentRatio(0, 0); ok {
		t.Error("0/0 ratio should be undefined")
	}
}
