package youtube

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"dissenter/internal/crawlkit"
)

// The paper drives Selenium because the fields it needs "reside in large
// blocks of JavaScript". Our crawler does the moral equivalent for the
// simulated pages: fetch the HTML, locate the ytInitialData assignment,
// and decode the embedded object.

// PageData is the metadata the crawler recovers from one YouTube page.
type PageData struct {
	Kind             Kind
	Title            string
	Owner            string
	Status           Status
	CommentsDisabled bool
}

// ErrNotYouTubePage is returned when the fetched page has no metadata
// blob to mine.
var ErrNotYouTubePage = errors.New("youtube: page contains no ytInitialData blob")

// Crawler fetches simulated YouTube pages. Construct with NewCrawler.
type Crawler struct {
	base    string
	fetcher *crawlkit.Fetcher
}

// NewCrawler builds a crawler that rewrites YouTube URLs onto the
// simulator at base (e.g. an httptest.Server URL). A nil client gets
// crawlkit's default.
func NewCrawler(base string, client *http.Client) *Crawler {
	return &Crawler{base: strings.TrimSuffix(base, "/"), fetcher: crawlkit.NewFetcher(client)}
}

// Fetch retrieves and mines one YouTube URL (in its original
// youtube.com/youtu.be form; the crawler maps it onto the simulator).
func (c *Crawler) Fetch(ctx context.Context, rawurl string) (PageData, error) {
	res, err := c.fetcher.Get(ctx, c.base+pathKey(rawurl))
	if err != nil {
		return PageData{}, fmt.Errorf("youtube: fetch %s: %w", rawurl, err)
	}
	switch res.Status {
	case http.StatusNotFound:
		return PageData{Status: StatusUnavailable, Kind: KindVideo}, nil
	case http.StatusOK:
		return ParsePage(string(res.Body))
	}
	return PageData{}, fmt.Errorf("youtube: fetch %s: HTTP %d", rawurl, res.Status)
}

// ParsePage extracts metadata from the HTML of a simulated YouTube page.
func ParsePage(html string) (PageData, error) {
	const marker = "var ytInitialData = "
	start := strings.Index(html, marker)
	if start < 0 {
		return PageData{}, ErrNotYouTubePage
	}
	rest := html[start+len(marker):]
	end := strings.Index(rest, "};")
	if end < 0 {
		return PageData{}, ErrNotYouTubePage
	}
	blob := rest[:end+1]
	var raw struct {
		PageKind          string `json:"pageKind"`
		VideoTitle        string `json:"videoTitle"`
		OwnerName         string `json:"ownerName"`
		PlayabilityStatus string `json:"playabilityStatus"`
		CommentsDisabled  bool   `json:"commentsDisabled"`
	}
	if err := json.Unmarshal([]byte(blob), &raw); err != nil {
		return PageData{}, fmt.Errorf("youtube: decode ytInitialData: %w", err)
	}
	return PageData{
		Kind:             Kind(raw.PageKind),
		Title:            raw.VideoTitle,
		Owner:            raw.OwnerName,
		Status:           Status(raw.PlayabilityStatus),
		CommentsDisabled: raw.CommentsDisabled,
	}, nil
}

// Summary aggregates a YouTube crawl the way §4.2.2 reports it.
type Summary struct {
	Total    int
	ByKind   map[Kind]int
	ByStatus map[Status]int
	// ActiveCommentsDisabled counts active videos whose YouTube comment
	// section is turned off — Dissenter's core value proposition.
	ActiveCommentsDisabled int
	// CommentedByOwner counts commented videos per content owner.
	CommentedByOwner map[string]int
}

// CrawlAll fetches every URL with `workers` goroutines and aggregates
// the results: failed fetches are re-requested (crawlkit.Fetcher's
// retries, then crawlkit.ForEach's follow-up passes) and a page that
// answers without a metadata blob is classified generic unavailable —
// the paper's re-request-then-classify handling.
func (c *Crawler) CrawlAll(ctx context.Context, urls []string, workers int) (Summary, error) {
	sum := Summary{
		ByKind:           map[Kind]int{},
		ByStatus:         map[Status]int{},
		CommentedByOwner: map[string]int{},
	}
	var mu sync.Mutex
	err := crawlkit.ForEach(ctx, urls, workers, func(ctx context.Context, u string) error {
		pd, err := c.Fetch(ctx, u)
		if errors.Is(err, ErrNotYouTubePage) {
			pd, err = PageData{Status: StatusUnavailable, Kind: KindVideo}, nil
		}
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		sum.Total++
		sum.ByKind[pd.Kind]++
		sum.ByStatus[pd.Status]++
		if pd.Status == StatusActive {
			if pd.CommentsDisabled {
				sum.ActiveCommentsDisabled++
			}
			if pd.Owner != "" {
				sum.CommentedByOwner[pd.Owner]++
			}
		}
		return nil
	})
	return sum, err
}
