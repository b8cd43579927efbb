package dissentercrawl

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dissenter/internal/corpus"
)

// Live growth: the paper's measurement campaign ran against a platform
// that kept growing under it — comments appeared between crawl passes,
// which is exactly what made the differential NSFW/offensive labeling a
// moving-target problem (§3.2). This file reproduces that condition:
// a Poster writes comments through the simulator's live write path
// while a Campaign crawls, and Stabilize keeps re-spidering until a
// full revisit round observes nothing new, so the mirror converges on
// the platform's final state instead of a torn mid-write snapshot.

// Poster is the background writer of the live-growth scenario: it
// posts N comments through POST /discussion/comment while a campaign
// runs. Targets are taken round-robin from URLs and FreshURLs;
// FreshURLs name addresses the platform has never seen, so the poster
// also exercises mid-crawl thread creation (§2.1's "allows new users
// ... to make comments" and the §6 covert-channel write path).
type Poster struct {
	// Web must carry a posting session (WithSession for a token whose
	// username resolves to a Dissenter account).
	Web *Crawler
	// URLs and FreshURLs are the target addresses (round-robin).
	URLs      []string
	FreshURLs []string
	// N is the total number of comments to write.
	N int
	// Interval pauses between posts; zero posts back to back.
	Interval time.Duration
	// HiddenEvery > 0 marks every k-th comment NSFW, so live writes land
	// in the shadow overlay too and the differential labeler must keep
	// them straight while they appear mid-crawl.
	HiddenEvery int

	mu     sync.Mutex
	posted []PostedComment
}

// PostedComment records one write the Poster performed.
type PostedComment struct {
	ID   string // minted comment-id
	URL  string // target address
	NSFW bool   // posted into the shadow overlay
}

// Run posts until N comments are written or ctx is cancelled. It is
// meant to run on its own goroutine, concurrent with Campaign.Run.
func (p *Poster) Run(ctx context.Context) error {
	targets := append(append([]string{}, p.URLs...), p.FreshURLs...)
	if len(targets) == 0 {
		return fmt.Errorf("dissentercrawl: poster has no target URLs")
	}
	for i := 0; i < p.N; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		target := targets[i%len(targets)]
		nsfw := p.HiddenEvery > 0 && i%p.HiddenEvery == p.HiddenEvery-1
		id, err := p.Web.PostComment(ctx, target, fmt.Sprintf("live growth %d", i), "", nsfw, false)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.posted = append(p.posted, PostedComment{ID: id, URL: target, NSFW: nsfw})
		p.mu.Unlock()
		if p.Interval > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(p.Interval):
			}
		}
	}
	return nil
}

// Posted returns a snapshot of the comments written so far.
func (p *Poster) Posted() []PostedComment {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PostedComment, len(p.posted))
	copy(out, p.posted)
	return out
}

// Stabilize re-spiders the platform until a full revisit round — home
// pages with every session, then the whole URL universe anonymously and
// with each authenticated session — discovers no new URL or comment, or
// maxRounds is exhausted. Each round's authenticated findings go
// through the same revisit-verified labeling as the main differential
// pass, so comments that appeared mid-crawl are labeled correctly. It
// requires a completed Run on the same Campaign (it continues from
// Run's crawl state) and reports whether the mirror reached a fixpoint.
// Note that a fixpoint observed while writers are still active only
// reflects a momentary lull; for a convergence that means "the mirror
// holds everything", wait for the writers first, as examples/live-crawl
// does.
func (c *Campaign) Stabilize(ctx context.Context, ds *corpus.Dataset, maxRounds int) (bool, error) {
	if c.base == nil {
		return false, fmt.Errorf("dissentercrawl: Stabilize requires a completed Run")
	}
	if maxRounds <= 0 {
		maxRounds = 8
	}
	defer finish(ds)
	for round := 0; round < maxRounds; round++ {
		grew, err := c.revisitRound(ctx, ds)
		if err != nil {
			return false, fmt.Errorf("campaign: stabilize round %d: %w", round, err)
		}
		if !grew {
			return true, nil
		}
	}
	return false, nil
}

// revisitRound performs one full re-spider and reports whether it grew
// the mirror.
func (c *Campaign) revisitRound(ctx context.Context, ds *corpus.Dataset) (bool, error) {
	// Re-harvest every known user's home page with every session: a URL
	// first commented during live growth is only reachable through its
	// author's (possibly session-gated) listing.
	names := make([]string, 0, len(ds.Users))
	for i := range ds.Users {
		names = append(names, ds.Users[i].Username)
	}
	sort.Strings(names)
	fresh, err := c.sweepHomePages(ctx, names, c.sessions(), nil)
	if err != nil {
		return false, err
	}
	// Re-mirror the whole universe: new plain comments merge unlabeled,
	// authenticated findings are revisit-verified.
	added, err := c.mirrorLabeled(ctx, ds, c.urlSet)
	if err != nil {
		return false, err
	}
	if len(fresh) == 0 && added == 0 {
		return false, nil
	}

	// New comments may name authors the mirror has never met (e.g. a
	// previously silent account that spoke mid-crawl); mine their hidden
	// metadata and harvest their pages exactly as Run does.
	known := make(map[string]bool, len(ds.Users))
	for i := range ds.Users {
		known[ds.Users[i].AuthorID] = true
	}
	for _, cm := range ds.Comments {
		if !known[cm.AuthorID] {
			return true, c.mineAndHarvestFixpoint(ctx, ds)
		}
	}
	return true, nil
}
