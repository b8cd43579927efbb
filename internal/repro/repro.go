// Package repro is the one-shot reproduction harness: it generates a
// synthetic deployment at a chosen scale, serves it over loopback HTTP,
// runs the full §3 measurement campaign against it, gathers the baseline
// datasets, and computes every table and figure of §4. The
// dissenter-repro binary and the bench suite are thin wrappers around
// it.
package repro

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"dissenter/internal/analysis"
	"dissenter/internal/baselines"
	"dissenter/internal/corpus"
	"dissenter/internal/dissentercrawl"
	"dissenter/internal/dissenterweb"
	"dissenter/internal/gabapi"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/graph"
	"dissenter/internal/pushshift"
	"dissenter/internal/synth"
	"dissenter/internal/youtube"
)

// Result bundles everything the reproduction computed.
type Result struct {
	Cfg      synth.Config
	Out      *synth.Output
	DS       *corpus.Dataset
	Accounts []gabcrawl.Account
	Study    *analysis.Study
	// Core holds the hateful-core thresholds appropriate for the run's
	// scale (the constructed core's minimum comment count).
	Core graph.HatefulCoreParams

	YTSummary youtube.Summary
	Matches   []pushshift.MatchResult
	NYT, DM   baselines.Corpus

	// Validation is the §3.2 shadow-sample check (100 comments); nil
	// when there was no live platform to check against.
	Validation *dissentercrawl.ShadowValidation

	// CrawlDuration is the wall time of the HTTP campaign.
	CrawlDuration time.Duration
}

// baselineSample caps the generated news-site corpora.
const baselineSample = 20_000

// Options configure a run.
type Options struct {
	Scale   float64 // 0 = synth.DefaultScale (1/64)
	Seed    int64
	Workers int // 0 = 16
}

// serve starts an http.Server on a loopback listener and returns its
// base URL and a shutdown func.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("repro: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// Run executes the full pipeline.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 16
	}
	cfg := synth.NewConfig(opts.Scale, opts.Seed)
	out := synth.Generate(cfg)

	gabURL, stopGab, err := serve(gabapi.NewServer(out.DB, gabapi.WithRateLimit(0, 0)))
	if err != nil {
		return nil, err
	}
	defer stopGab()
	web := dissenterweb.NewServer(out.DB, dissenterweb.WithURLRateLimit(0, 0))
	web.RegisterProbeSessions()
	webURL, stopWeb, err := serve(web)
	if err != nil {
		return nil, err
	}
	defer stopWeb()
	ytURL, stopYT, err := serve(out.YouTube)
	if err != nil {
		return nil, err
	}
	defer stopYT()

	campaign := &dissentercrawl.Campaign{
		Gab:          gabcrawl.New(gabURL, nil),
		MaxGabID:     out.DB.MaxGabID(),
		Web:          dissentercrawl.New(webURL, nil),
		NSFWWeb:      dissentercrawl.New(webURL, nil, dissentercrawl.WithSession("nsfw-probe")),
		OffensiveWeb: dissentercrawl.New(webURL, nil, dissentercrawl.WithSession("off-probe")),
		Workers:      opts.Workers,
	}
	start := time.Now()
	ds, err := campaign.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("repro: campaign: %w", err)
	}
	validation, err := campaign.ValidateShadowSample(ctx, ds, 100, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("repro: shadow validation: %w", err)
	}

	res := &Result{
		Cfg:           cfg,
		Out:           out,
		DS:            ds,
		Accounts:      campaign.Accounts(),
		Study:         analysis.NewStudy(ds),
		Core:          graph.HatefulCoreParams{MinComments: cfg.HatefulCoreMinComments, MedianToxicity: 0.3},
		Validation:    &validation,
		CrawlDuration: time.Since(start),
	}

	// YouTube crawl (§3.3).
	res.YTSummary, err = youtube.NewCrawler(ytURL, nil).CrawlAll(ctx, res.Study.YouTubeURLs(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: youtube: %w", err)
	}

	// Reddit matching (§4.4.1) over a served Pushshift simulator.
	var names []string
	for i := range ds.Users {
		names = append(names, ds.Users[i].Username)
	}
	sort.Strings(names)
	psURL, stopPS, err := serve(pushshift.NewSim(names, opts.Seed+1))
	if err != nil {
		return nil, err
	}
	defer stopPS()
	res.Matches, err = pushshift.NewClient(psURL, nil).MatchUsers(ctx, names, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: pushshift: %w", err)
	}

	res.NYT = baselines.NYTimes(baselineSample, opts.Seed+2)
	res.DM = baselines.DailyMail(baselineSample, opts.Seed+3)
	return res, nil
}
