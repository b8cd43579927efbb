package dissentercrawl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"dissenter/internal/corpus"
	"dissenter/internal/deployment"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/ids"
	"dissenter/internal/synth"
)

// The campaign tests run the entire §3 pipeline over live HTTP against
// the deployment dissenter-platform serves and compare the mirror
// against ground truth.

const outSeed = 11

var out = synth.Generate(synth.NewConfig(1.0/512, outSeed))

// serve serves h for the life of the test.
func serve(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// campaignOn is a campaign crawling every simulator at srv, its
// differential passes under the probe sessions deployment.Mux registers.
func campaignOn(srv *httptest.Server, maxGabID ids.GabID, workers int) *Campaign {
	return &Campaign{
		Gab:          gabcrawl.New(srv.URL, srv.Client()),
		MaxGabID:     maxGabID,
		Web:          New(srv.URL, srv.Client()),
		NSFWWeb:      New(srv.URL, srv.Client(), WithSession("nsfw-probe")),
		OffensiveWeb: New(srv.URL, srv.Client(), WithSession("off-probe")),
		Workers:      workers,
	}
}

func newCampaign(t *testing.T) *Campaign {
	t.Helper()
	srv := serve(t, deployment.Mux(out.YouTube, out.DB, outSeed, nil, nil))
	return campaignOn(srv, out.DB.MaxGabID(), 16)
}

// runCampaign caches the crawl result across tests (it is deterministic:
// TestRunStableFrozenCorpus compares a second crawl's saved bytes).
var cached *corpus.Dataset

func runCampaign(t *testing.T) *corpus.Dataset {
	t.Helper()
	if cached != nil {
		return cached
	}
	ds, err := newCampaign(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cached = ds
	return ds
}

func TestCampaignUserDiscovery(t *testing.T) {
	ds := runCampaign(t)
	truth := out.DB.Census()
	if len(ds.Users) != truth.DissenterUsers {
		t.Errorf("discovered %d users, ground truth %d", len(ds.Users), truth.DissenterUsers)
	}
	missing := 0
	for _, u := range ds.Users {
		if u.MissingFromGab {
			missing++
		}
	}
	if missing != truth.DeletedGabUsers {
		t.Errorf("missing-from-Gab users = %d, want %d", missing, truth.DeletedGabUsers)
	}
}

func TestCampaignCommentMirror(t *testing.T) {
	ds := runCampaign(t)
	truth := out.DB.Census()
	if len(ds.Comments) != truth.Comments {
		t.Errorf("mirrored %d comments, ground truth %d", len(ds.Comments), truth.Comments)
	}
	nsfw, off := 0, 0
	for _, c := range ds.Comments {
		if c.NSFW {
			nsfw++
		}
		if c.Offensive {
			off++
		}
	}
	// Comments that are both NSFW and offensive surface in whichever
	// differential pass runs first; each label count must cover at least
	// the single-labeled ground truth and at most the union.
	truthNSFW, truthOff, truthBoth := 0, 0, 0
	for _, c := range allComments(out.DB) {
		switch {
		case c.NSFW && c.Offensive:
			truthBoth++
		case c.NSFW:
			truthNSFW++
		case c.Offensive:
			truthOff++
		}
	}
	if nsfw < truthNSFW || nsfw > truthNSFW+truthBoth {
		t.Errorf("NSFW inferred = %d, want in [%d, %d]", nsfw, truthNSFW, truthNSFW+truthBoth)
	}
	if off < truthOff || off > truthOff+truthBoth {
		t.Errorf("offensive inferred = %d, want in [%d, %d]", off, truthOff, truthOff+truthBoth)
	}
}

func TestCampaignCommentTextFidelity(t *testing.T) {
	ds := runCampaign(t)
	checked := 0
	for _, c := range ds.Comments {
		id, err := ids.Parse(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		truth := out.DB.CommentByID(id)
		if truth == nil {
			t.Fatalf("mirrored comment %s not in ground truth", c.ID)
		}
		if truth.Text != c.Text {
			t.Fatalf("comment %s text mismatch:\n got %q\nwant %q", c.ID, c.Text, truth.Text)
		}
		if truth.AuthorID.String() != c.AuthorID {
			t.Fatalf("comment %s author mismatch", c.ID)
		}
		wantParent := ""
		if !truth.ParentID.IsZero() {
			wantParent = truth.ParentID.String()
		}
		if wantParent != c.ParentID {
			t.Fatalf("comment %s parent mismatch", c.ID)
		}
		checked++
		if checked >= 500 {
			break
		}
	}
}

func TestCampaignURLTable(t *testing.T) {
	ds := runCampaign(t)
	// Every URL with at least one comment must be mirrored with correct
	// votes and identifiers.
	missing := 0
	for _, cu := range allURLs(out.DB) {
		if len(out.DB.CommentsOnURL(cu.ID)) == 0 {
			continue
		}
		got := ds.URLByID(cu.ID.String())
		if got == nil {
			missing++
			continue
		}
		if got.Ups != cu.Ups || got.Downs != cu.Downs {
			t.Fatalf("URL %s votes mismatch: %d/%d vs %d/%d", cu.URL, got.Ups, got.Downs, cu.Ups, cu.Downs)
		}
		if got.Title != cu.Title {
			t.Fatalf("URL %s title mismatch: %q vs %q", cu.URL, got.Title, cu.Title)
		}
	}
	if missing > 0 {
		t.Errorf("%d commented URLs missing from mirror", missing)
	}
}

func TestCampaignHiddenMetadata(t *testing.T) {
	ds := runCampaign(t)
	withMeta := 0
	for _, u := range ds.Users {
		if u.Flags != nil {
			withMeta++
			if _, ok := u.Flags["canLogin"]; !ok {
				t.Fatalf("user %s flags lack canLogin: %v", u.Username, u.Flags)
			}
			if _, ok := u.Filters["nsfw"]; !ok {
				t.Fatalf("user %s filters lack nsfw: %v", u.Username, u.Filters)
			}
			if u.Language == "" {
				t.Fatalf("user %s language missing", u.Username)
			}
		}
	}
	active := len(ds.ActiveUsers())
	if withMeta < active {
		t.Errorf("hidden metadata for %d users, want >= %d (all active)", withMeta, active)
	}
}

func TestCampaignSocialGraphDissenterOnly(t *testing.T) {
	ds := runCampaign(t)
	if len(ds.Graph) == 0 {
		t.Fatal("empty social graph")
	}
	dissenter := map[string]bool{}
	for _, u := range ds.Users {
		dissenter[u.Username] = true
	}
	edges := 0
	for from, tos := range ds.Graph {
		if !dissenter[from] {
			t.Fatalf("graph source %q is not a Dissenter user", from)
		}
		for _, to := range tos {
			if !dissenter[to] {
				t.Fatalf("graph edge to non-Dissenter user %q survived filtering", to)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no edges after filtering")
	}
	// Ground truth: count Dissenter-to-Dissenter follow edges.
	truthEdges := 0
	for from, tos := range allFollows(out.DB) {
		fu := out.DB.UserByGabID(from)
		if fu == nil || !fu.HasDissenter {
			continue
		}
		for _, to := range tos {
			tu := out.DB.UserByGabID(to)
			if tu != nil && tu.HasDissenter {
				truthEdges++
			}
		}
	}
	// Deleted-Gab users' edges are unobservable; allow a small deficit.
	if edges > truthEdges || edges < truthEdges*9/10 {
		t.Errorf("crawled %d edges, ground truth %d", edges, truthEdges)
	}
}

func TestCampaignSaveLoadRoundTrip(t *testing.T) {
	ds := runCampaign(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := corpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(ds.Users) || len(back.URLs) != len(ds.URLs) ||
		len(back.Comments) != len(ds.Comments) || len(back.Graph) != len(ds.Graph) {
		t.Fatalf("round trip size mismatch: %d/%d/%d/%d vs %d/%d/%d/%d",
			len(back.Users), len(back.URLs), len(back.Comments), len(back.Graph),
			len(ds.Users), len(ds.URLs), len(ds.Comments), len(ds.Graph))
	}
	// Spot-check a comment with its inferred labels.
	for i := range ds.Comments {
		if ds.Comments[i].NSFW {
			found := false
			for j := range back.Comments {
				if back.Comments[j].ID == ds.Comments[i].ID && back.Comments[j].NSFW {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("NSFW label lost in round trip")
			}
			break
		}
	}
}
