package dissentercrawl

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"dissenter/internal/deployment"
	"dissenter/internal/synth"
)

// flaky injects a deterministic 503 every nth request — the crawl
// framework's re-request machinery (§3.2's "monitor request timeouts and
// re-request missed pages") must absorb it without losing data.
type flaky struct {
	inner http.Handler
	n     uint64
	count atomic.Uint64
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.count.Add(1)%f.n == 0 {
		http.Error(w, "transient storage error", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestCampaignSurvivesFlakyServers(t *testing.T) {
	gen := synth.Generate(synth.NewConfig(1.0/2048, 13))
	srv := serve(t, &flaky{inner: deployment.Mux(gen.YouTube, gen.DB, 13, nil, nil), n: 11})
	ds, err := campaignOn(srv, gen.DB.MaxGabID(), 8).Run(context.Background())
	if err != nil {
		t.Fatalf("campaign failed under fault injection: %v", err)
	}
	truth := gen.DB.Census()
	if len(ds.Users) != truth.DissenterUsers {
		t.Errorf("users = %d, want %d", len(ds.Users), truth.DissenterUsers)
	}
	if len(ds.Comments) != truth.Comments {
		t.Errorf("comments = %d, want %d — fault injection lost data", len(ds.Comments), truth.Comments)
	}
}

func TestShadowValidationSample(t *testing.T) {
	runCampaign(t) // ensure cached dataset exists
	campaign := newCampaign(t)
	v, err := campaign.ValidateShadowSample(context.Background(), cached, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Checked == 0 {
		t.Skip("no hidden comments at this scale")
	}
	if !v.AllConfirmed() {
		t.Errorf("validation: %d/%d confirmed, failures %v", v.Confirmed, v.Checked, v.Failures)
	}
}
