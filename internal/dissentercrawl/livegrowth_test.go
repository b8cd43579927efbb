package dissentercrawl

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dissenter/internal/deployment"
	"dissenter/internal/ids"
	"dissenter/internal/synth"
)

// TestLiveGrowthCampaignConverges reproduces the paper's moving-target
// condition: a background poster writes comments (plain, NSFW-flagged,
// and onto never-seen URLs) while the measurement campaign crawls the
// same servers; the crawl must then stabilize on the platform's final
// state with every live comment captured and no plain comment
// mislabeled as shadow content. A dropped cache invalidation on the
// write path — discussion, author home, or trends — leaves the crawl
// reading stale pages and this test failing.
func TestLiveGrowthCampaignConverges(t *testing.T) {
	priv := synth.Generate(synth.NewConfig(1.0/1024, 17))
	if len(priv.DB.ActiveUsers()) == 0 {
		t.Fatal("fixture has no active users: no writer session")
	}
	srv := serve(t, deployment.Mux(priv.YouTube, priv.DB, 17, nil, nil))
	campaign := campaignOn(srv, priv.DB.MaxGabID(), 8)

	var targets []string
	for _, cu := range allURLs(priv.DB) {
		if len(priv.DB.CommentsOnURL(cu.ID)) > 0 {
			targets = append(targets, cu.URL)
		}
		if len(targets) == 5 {
			break
		}
	}
	poster := &Poster{
		Web:  New(srv.URL, srv.Client(), WithSession("writer")),
		URLs: targets,
		FreshURLs: []string{
			"https://live.example/growth/0",
			"https://live.example/growth/1",
			"dissenter://covert/mid-crawl-drop",
		},
		N:           64,
		Interval:    3 * time.Millisecond,
		HiddenEvery: 7,
	}

	ctx := context.Background()
	posterErr := make(chan error, 1)
	go func() { posterErr <- poster.Run(ctx) }()

	ds, err := campaign.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-posterErr; err != nil {
		t.Fatalf("poster: %v", err)
	}
	stable, err := campaign.Stabilize(ctx, ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("crawl did not converge after the poster stopped")
	}

	posted := poster.Posted()
	if len(posted) != poster.N {
		t.Fatalf("poster wrote %d/%d comments", len(posted), poster.N)
	}

	// Every live comment must be in the mirror with the right label.
	byID := map[string]int{}
	for i := range ds.Comments {
		byID[ds.Comments[i].ID] = i
	}
	for _, pc := range posted {
		i, ok := byID[pc.ID]
		if !ok {
			t.Errorf("live comment %s on %s missing from the converged mirror", pc.ID, pc.URL)
			continue
		}
		if got := ds.Comments[i].NSFW; got != pc.NSFW {
			t.Errorf("live comment %s NSFW label = %v, want %v", pc.ID, got, pc.NSFW)
		}
		if ds.Comments[i].Offensive {
			t.Errorf("live comment %s mislabeled offensive", pc.ID)
		}
	}

	// The whole mirror must agree with ground truth: exact labels, and
	// full coverage of everything a registered session could see (a
	// doubly-flagged comment is invisible to both single-flag sessions).
	reachable := 0
	for _, truth := range allComments(priv.DB) {
		if !(truth.NSFW && truth.Offensive) {
			reachable++
		}
	}
	if len(ds.Comments) != reachable {
		t.Errorf("mirror holds %d comments, ground truth has %d reachable", len(ds.Comments), reachable)
	}
	for _, cm := range ds.Comments {
		id, err := ids.Parse(cm.ID)
		if err != nil {
			t.Fatal(err)
		}
		truth := priv.DB.CommentByID(id)
		if truth == nil {
			t.Fatalf("mirrored comment %s not in ground truth", cm.ID)
		}
		if cm.NSFW != truth.NSFW || cm.Offensive != truth.Offensive {
			t.Errorf("comment %s labels = nsfw:%v off:%v, truth nsfw:%v off:%v (mid-crawl mislabel)",
				cm.ID, cm.NSFW, cm.Offensive, truth.NSFW, truth.Offensive)
		}
	}

	// The mid-crawl fresh URLs must have been discovered via the
	// writer's (invalidated) home page and mirrored.
	for _, fresh := range poster.FreshURLs {
		found := false
		for i := range ds.URLs {
			if ds.URLs[i].URL == fresh {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mid-crawl URL %q missing from the mirror", fresh)
		}
	}
}

// TestStabilizeRequiresRun pins the API contract.
func TestStabilizeRequiresRun(t *testing.T) {
	c := &Campaign{}
	if _, err := c.Stabilize(context.Background(), nil, 2); err == nil {
		t.Fatal("Stabilize without Run should fail")
	}
}

// TestRunStableFrozenCorpus: on a platform nobody is writing to, the
// first revisit round must already be a fixpoint and the mirror must
// match the plain Run result — to the byte, as saved: a second campaign
// over the same platform, stabilized, writes the directory the first
// one wrote.
func TestRunStableFrozenCorpus(t *testing.T) {
	c := newCampaign(t)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stable, err := c.Stabilize(context.Background(), ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stable {
		t.Fatal("frozen corpus did not stabilize in one revisit round")
	}
	if truth := out.DB.Census(); len(ds.Comments) != truth.Comments {
		t.Errorf("stable mirror holds %d comments, ground truth %d", len(ds.Comments), truth.Comments)
	}
	plainDir, stableDir := t.TempDir(), t.TempDir()
	if err := runCampaign(t).Save(plainDir); err != nil {
		t.Fatal(err)
	}
	if err := ds.Save(stableDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"users.jsonl", "urls.jsonl", "comments.jsonl", "graph.jsonl"} {
		plain, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(filepath.Join(stableDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, again) {
			t.Errorf("%s: two campaigns over one platform saved different bytes", name)
		}
	}
}
