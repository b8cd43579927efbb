// Package repro is the one-shot reproduction harness: it generates a
// synthetic deployment at a chosen scale, serves it over loopback HTTP
// exactly as dissenter-platform does (internal/deployment's mux behind
// replica.PrimaryRoot, on one listener), runs the full §3 measurement
// campaign, the YouTube crawl and the Reddit matching against it,
// gathers the baseline datasets, and computes every table and figure of
// §4. The dissenter-repro binary is a thin wrapper around it.
package repro

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"dissenter/internal/analysis"
	"dissenter/internal/baselines"
	"dissenter/internal/corpus"
	"dissenter/internal/deployment"
	"dissenter/internal/dissentercrawl"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/graph"
	"dissenter/internal/pushshift"
	"dissenter/internal/replica"
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

// Run executes the full pipeline. The deployment is served the way
// dissenter-platform serves it — deployment.Mux behind
// replica.PrimaryRoot, admission control and drain included — on one
// loopback listener, and every client of the crawl takes its one base
// URL.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 16
	}
	cfg := synth.NewConfig(opts.Scale, opts.Seed)
	out := synth.Generate(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("repro: listen: %w", err)
	}
	root := replica.PrimaryRoot(out.DB, nil, deployment.Mux(out.YouTube, out.DB, opts.Seed, nil, nil))
	serveCtx, drain := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- root.Serve(serveCtx, ln) }()
	defer func() { drain(); <-served }()
	base := "http://" + ln.Addr().String()

	campaign := &dissentercrawl.Campaign{
		Gab:          gabcrawl.New(base, nil),
		MaxGabID:     out.DB.MaxGabID(),
		Web:          dissentercrawl.New(base, nil),
		NSFWWeb:      dissentercrawl.New(base, nil, dissentercrawl.WithSession("nsfw-probe")),
		OffensiveWeb: dissentercrawl.New(base, nil, dissentercrawl.WithSession("off-probe")),
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
	res.YTSummary, err = youtube.NewCrawler(base, nil).CrawlAll(ctx, res.Study.YouTubeURLs(), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: youtube: %w", err)
	}

	// Reddit matching (§4.4.1) of every crawled username.
	var names []string
	for i := range ds.Users {
		names = append(names, ds.Users[i].Username)
	}
	sort.Strings(names)
	res.Matches, err = pushshift.NewClient(base, nil).MatchUsers(ctx, names, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("repro: pushshift: %w", err)
	}

	res.NYT = baselines.NYTimes(baselineSample, opts.Seed+2)
	res.DM = baselines.DailyMail(baselineSample, opts.Seed+3)
	return res, nil
}
