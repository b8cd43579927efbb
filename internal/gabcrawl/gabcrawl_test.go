package gabcrawl

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dissenter/internal/deployment"
	"dissenter/internal/gabapi"
	"dissenter/internal/ids"
	"dissenter/internal/synth"
)

var out = synth.Generate(synth.NewConfig(1.0/512, 9))

// newClient crawls the deployment dissenter-platform serves, its Gab
// API configured by opts (unthrottled without any).
func newClient(t *testing.T, opts ...gabapi.Option) *Client {
	t.Helper()
	srv := httptest.NewServer(deployment.Mux(out.YouTube, out.DB, 9, opts, nil))
	t.Cleanup(srv.Close)
	return New(srv.URL, srv.Client())
}

func TestAccountFound(t *testing.T) {
	c := newClient(t)
	acct, ok, err := c.Account(context.Background(), 1)
	if err != nil || !ok {
		t.Fatalf("Account(1): %v %v", ok, err)
	}
	if acct.Username != "e" || acct.GabID != 1 {
		t.Errorf("acct = %+v", acct)
	}
	if acct.CreatedAt.IsZero() {
		t.Error("created time missing")
	}
}

func TestAccountNotFound(t *testing.T) {
	c := newClient(t)
	_, ok, err := c.Account(context.Background(), out.DB.MaxGabID()+999)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unallocated ID reported found")
	}
}

func TestEnumerateComplete(t *testing.T) {
	c := newClient(t)
	accounts, err := c.Enumerate(context.Background(), out.DB.MaxGabID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, u := range allUsers(out.DB) {
		if !u.GabDeleted {
			live++
		}
	}
	if len(accounts) != live {
		t.Errorf("enumerated %d accounts, ground truth has %d live", len(accounts), live)
	}
	for i := 1; i < len(accounts); i++ {
		if accounts[i-1].GabID >= accounts[i].GabID {
			t.Fatal("enumeration not sorted by ID")
		}
	}
}

func TestEnumerateHonorsRateLimit(t *testing.T) {
	// A tight limit forces the client into the header-driven pause path;
	// the enumeration must still complete.
	c := newClient(t, gabapi.WithRateLimit(50, 150*time.Millisecond))
	accounts, err := c.Enumerate(context.Background(), 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(accounts) == 0 {
		t.Fatal("no accounts enumerated under rate limit")
	}
}

func TestRelationsComplete(t *testing.T) {
	c := newClient(t)
	var gid ids.GabID
	var want int
	for id, following := range allFollows(out.DB) {
		if len(following) > want {
			gid, want = id, len(following)
		}
	}
	if want == 0 {
		t.Fatal("no follow edges in ground truth")
	}
	got, err := c.Relations(context.Background(), gid, Following)
	if err != nil {
		t.Fatal(err)
	}
	// Deleted accounts are invisible in relation listings, so the crawl
	// may see slightly fewer.
	if len(got) > want || len(got) < want-5 {
		t.Errorf("relations = %d, ground truth %d", len(got), want)
	}
}

func TestRelationsUnknownUser(t *testing.T) {
	c := newClient(t)
	got, err := c.Relations(context.Background(), out.DB.MaxGabID()+999, Followers)
	if err != nil || got != nil {
		t.Errorf("unknown user relations = %v, %v", got, err)
	}
}

func TestGrowthSeriesAndInversions(t *testing.T) {
	c := newClient(t)
	accounts, err := c.Enumerate(context.Background(), out.DB.MaxGabID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	series := GrowthSeries(accounts)
	if len(series) != len(accounts) {
		t.Fatal("series length mismatch")
	}
	for i := 1; i < len(series); i++ {
		if series[i].CreatedAt.Before(series[i-1].CreatedAt) {
			t.Fatal("series not sorted by creation time")
		}
	}
	inv := CountInversions(series)
	if inv == 0 {
		t.Error("no ID anomalies observed; Figure 2 stripes missing")
	}
	if frac := float64(inv) / float64(len(series)); frac > 0.05 {
		t.Errorf("inversion fraction %.3f too high", frac)
	}
}

func TestFollowerBFSUndercounts(t *testing.T) {
	// §3.1: the follower-graph crawl (the authors' first method) must
	// miss the silent/friendless users that exhaustive enumeration finds.
	c := newClient(t)
	ctx := context.Background()

	full, err := c.Enumerate(ctx, out.DB.MaxGabID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Seed from @a (Gab ID 2, Andrew Torba) as the paper did.
	bfs, err := c.CrawlFollowerGraph(ctx, []ids.GabID{2}, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs) == 0 {
		t.Fatal("BFS found nothing")
	}
	if len(bfs) >= len(full) {
		t.Fatalf("BFS found %d >= enumeration's %d; it must undercount", len(bfs), len(full))
	}
	coverage := float64(len(bfs)) / float64(len(full))
	if coverage < 0.3 {
		t.Errorf("BFS coverage %.2f implausibly low; @a auto-follow missing?", coverage)
	}
	if coverage > 0.95 {
		t.Errorf("BFS coverage %.2f too complete; the silent majority should be invisible", coverage)
	}
	// Everything BFS finds, enumeration also finds.
	inFull := map[ids.GabID]bool{}
	for _, a := range full {
		inFull[a.GabID] = true
	}
	for _, a := range bfs {
		if !inFull[a.GabID] {
			t.Fatalf("BFS found %d which enumeration missed", a.GabID)
		}
	}
	t.Logf("enumeration %d vs follower-BFS %d (%.1f%% coverage)",
		len(full), len(bfs), 100*float64(len(bfs))/float64(len(full)))
}

func TestFollowerBFSDepthZero(t *testing.T) {
	c := newClient(t)
	bfs, err := c.CrawlFollowerGraph(context.Background(), []ids.GabID{1}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs) != 1 {
		t.Fatalf("depth 0 found %d accounts, want 1", len(bfs))
	}
}
