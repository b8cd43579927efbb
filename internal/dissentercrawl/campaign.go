package dissentercrawl

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"dissenter/internal/corpus"
	"dissenter/internal/crawlkit"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/ids"
)

// Campaign runs the full measurement pipeline of §3:
//
//  1. enumerate Gab accounts (§3.1),
//  2. probe which usernames have Dissenter home pages via response size,
//  3. mirror home pages, then every commented URL's comment page (§3.2),
//  4. re-spider with NSFW-enabled and offensive-enabled sessions
//     separately, labeling comments by differencing the crawls (§3.2),
//  5. mine hidden commentAuthor metadata for every discovered author —
//     which also surfaces Dissenter users whose Gab accounts are gone,
//  6. crawl the Gab follow graph for Dissenter users and drop
//     non-Dissenter endpoints (§3.4).
type Campaign struct {
	// Gab is the API client for enumeration and the social crawl.
	Gab *gabcrawl.Client
	// MaxGabID bounds enumeration (the authors' own account ID).
	MaxGabID ids.GabID
	// Web, NSFWWeb, OffensiveWeb are the anonymous and authenticated
	// Dissenter crawlers. NSFWWeb/OffensiveWeb may be nil to skip the
	// differential pass.
	Web          *Crawler
	NSFWWeb      *Crawler
	OffensiveWeb *Crawler
	// Workers bounds crawl parallelism (default 8).
	Workers int

	mu               sync.Mutex
	seenURLIDs       map[string]string // commenturl-id -> raw URL as first observed
	harvestedMissing map[string]bool

	// Crawl state Run leaves behind so Stabilize (livegrowth.go) can
	// keep re-spidering a platform that grew mid-crawl: the known URL
	// universe, the merged comment mirror keyed by comment-id, and the
	// Gab enumeration (as returned, and as a directory by username).
	urlSet        map[string]bool
	base          map[string]corpus.Comment
	accounts      []gabcrawl.Account
	gabByUsername map[string]gabcrawl.Account
}

// Accounts returns the §3.1 enumeration Run made, sorted by Gab ID —
// Figure 2's input, so a caller need not walk the ID space again.
func (c *Campaign) Accounts() []gabcrawl.Account { return c.accounts }

// Run executes the campaign and returns the mirrored dataset.
func (c *Campaign) Run(ctx context.Context) (*corpus.Dataset, error) {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	accounts, err := c.Gab.Enumerate(ctx, c.MaxGabID, c.Workers)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c.accounts = accounts
	c.gabByUsername = make(map[string]gabcrawl.Account, len(accounts))
	usernames := make([]string, 0, len(accounts))
	for _, a := range accounts {
		c.gabByUsername[a.Username] = a
		usernames = append(usernames, a.Username)
	}

	dissenterNames, err := c.probe(ctx, usernames)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	ds := &corpus.Dataset{Graph: map[string][]string{}}
	c.seenURLIDs = map[string]string{}
	c.urlSet = map[string]bool{}
	c.base = map[string]corpus.Comment{}
	// Mirror each Dissenter home page into the dataset and collect the
	// commented-URL universe.
	_, err = c.sweepHomePages(ctx, dissenterNames, []*Crawler{c.Web}, func(name string, up UserPage) {
		u := corpus.User{
			AuthorID:    up.AuthorID,
			Username:    up.Username,
			DisplayName: up.DisplayName,
			Bio:         up.Bio,
		}
		if a, ok := c.gabByUsername[name]; ok {
			u.GabID = int64(a.GabID)
			u.GabCreated = a.CreatedAt
		}
		ds.Users = append(ds.Users, u)
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	if _, err := c.mirrorPlain(ctx, ds, c.urlSet); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	if err := c.differential(ctx, ds, dissenterNames); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	if err := c.mineAndHarvestFixpoint(ctx, ds); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	if err := c.socialCrawl(ctx, ds); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	finish(ds)
	return ds, nil
}

// finish puts the mirror in its one saved order — users by author-id,
// URLs by commenturl-id, comments by comment-id — and indexes it.
// Workers append in completion order, so without this two crawls of one
// platform save the same set as different bytes.
func finish(ds *corpus.Dataset) {
	sort.Slice(ds.Users, func(i, j int) bool { return ds.Users[i].AuthorID < ds.Users[j].AuthorID })
	sort.Slice(ds.URLs, func(i, j int) bool { return ds.URLs[i].ID < ds.URLs[j].ID })
	sort.Slice(ds.Comments, func(i, j int) bool { return ds.Comments[i].ID < ds.Comments[j].ID })
	ds.Reindex()
}

// mineAndHarvestFixpoint iterates hidden-metadata mining against
// missing-user-page harvesting until neither discovers anything new.
// Mining surfaces commenters missing from the Gab enumeration (deleted
// Gab accounts, §4.1.1); their Dissenter home pages still exist and may
// list otherwise-undiscovered URLs, which in turn may carry comments by
// further unknown authors.
func (c *Campaign) mineAndHarvestFixpoint(ctx context.Context, ds *corpus.Dataset) error {
	for round := 0; round < 4; round++ {
		if err := c.mineHiddenMeta(ctx, ds); err != nil {
			return err
		}
		grew, err := c.harvestMissingUserPages(ctx, ds)
		if err != nil {
			return err
		}
		if !grew {
			break
		}
	}
	return nil
}

// probe finds the usernames with Dissenter accounts (size side channel).
func (c *Campaign) probe(ctx context.Context, usernames []string) ([]string, error) {
	var mu sync.Mutex
	var found []string
	err := crawlkit.ForEach(ctx, usernames, c.Workers, func(ctx context.Context, name string) error {
		ok, err := c.Web.ProbeUsername(ctx, name)
		if err != nil {
			return err
		}
		if ok {
			mu.Lock()
			found = append(found, name)
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(found)
	return found, nil
}

// pass is one authenticated session of the differential crawl and the
// label a comment earns by being visible only under it (§3.2).
type pass struct {
	web   *Crawler
	label func(*corpus.Comment)
}

// passes lists the authenticated sessions the campaign was given, in
// labeling order (NSFW+offensive double-labels resolve first-wins).
func (c *Campaign) passes() []pass {
	var out []pass
	if c.NSFWWeb != nil {
		out = append(out, pass{c.NSFWWeb, func(cm *corpus.Comment) { cm.NSFW = true }})
	}
	if c.OffensiveWeb != nil {
		out = append(out, pass{c.OffensiveWeb, func(cm *corpus.Comment) { cm.Offensive = true }})
	}
	return out
}

// sessions lists every crawler the campaign holds, anonymous first.
func (c *Campaign) sessions() []*Crawler {
	webs := []*Crawler{c.Web}
	for _, p := range c.passes() {
		webs = append(webs, p.web)
	}
	return webs
}

// sweepHomePages fetches every named home page under each of webs and
// returns the URLs they list that the campaign had not seen, which are
// now part of c.urlSet. visit, when non-nil, is handed each parsed page
// (serialised with the other visits).
func (c *Campaign) sweepHomePages(ctx context.Context, names []string, webs []*Crawler, visit func(name string, up UserPage)) (map[string]bool, error) {
	fresh := map[string]bool{}
	var mu sync.Mutex
	for _, web := range webs {
		err := crawlkit.ForEach(ctx, names, c.Workers, func(ctx context.Context, name string) error {
			up, err := web.FetchUserPage(ctx, name)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if visit != nil {
				visit(name, up)
			}
			for _, raw := range up.URLs {
				if !c.urlSet[raw] {
					c.urlSet[raw] = true
					fresh[raw] = true
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// mirrorComments fetches the comment page of every given URL with the
// given crawler and returns the observed comments keyed by comment-id.
// A page seen for the first time is also recorded in the URL table.
func (c *Campaign) mirrorComments(ctx context.Context, ds *corpus.Dataset, urlSet map[string]bool, web *Crawler) (map[string]corpus.Comment, error) {
	urls := make([]string, 0, len(urlSet))
	for u := range urlSet {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	seen := map[string]corpus.Comment{}
	err := crawlkit.ForEach(ctx, urls, c.Workers, func(ctx context.Context, raw string) error {
		d, err := web.FetchDiscussion(ctx, raw)
		if err != nil {
			return err
		}
		if d.New {
			return nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.seenURLIDs[d.URLID]; !ok {
			c.seenURLIDs[d.URLID] = raw
			ds.URLs = append(ds.URLs, corpus.URL{
				ID: d.URLID, URL: raw,
				Title: d.Title, Description: d.Description,
				Ups: d.Ups, Downs: d.Downs,
			})
		}
		for _, rec := range d.Comments {
			seen[rec.ID] = corpus.Comment{
				ID: rec.ID, URLID: d.URLID,
				AuthorID: rec.AuthorID, ParentID: rec.ParentID,
				Text: rec.Text,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return seen, nil
}

// mirrorPlain mirrors urls anonymously and merges what it saw into the
// mirror, unlabeled. It returns how many comments were new.
func (c *Campaign) mirrorPlain(ctx context.Context, ds *corpus.Dataset, urls map[string]bool) (int, error) {
	found, err := c.mirrorComments(ctx, ds, urls, c.Web)
	if err != nil {
		return 0, err
	}
	added := 0
	for id, rec := range found {
		if _, ok := c.base[id]; !ok {
			ds.Comments = append(ds.Comments, rec)
			c.base[id] = rec
			added++
		}
	}
	return added, nil
}

// mirrorAuthed mirrors urls under one authenticated session and folds
// its observations into the mirror. A comment seen by the authenticated
// session but absent from the baseline is only labeled hidden after a
// fresh anonymous revisit of its page — performed AFTER the
// authenticated observation — still lacks it. On a frozen corpus the
// revisit changes nothing; on a live platform it is what keeps the
// differential sound: a plain comment posted between the original
// baseline and the authenticated pass shows up in the revisit (comments
// are append-only) and is merged unlabeled instead of being mislabeled
// as shadow content. It returns how many comments the merge added.
func (c *Campaign) mirrorAuthed(ctx context.Context, ds *corpus.Dataset, urls map[string]bool, p pass) (int, error) {
	found, err := c.mirrorComments(ctx, ds, urls, p.web)
	if err != nil {
		return 0, err
	}
	candidates := map[string]corpus.Comment{}
	revisit := map[string]bool{}
	for id, rec := range found {
		if _, ok := c.base[id]; ok {
			continue
		}
		candidates[id] = rec
		if raw, ok := c.rawURLOf(rec.URLID); ok {
			revisit[raw] = true
		}
	}
	if len(candidates) == 0 {
		return 0, nil
	}
	// Anything the anonymous revisit can see is plain; merge it first so
	// the labeling loop below skips it.
	added, err := c.mirrorPlain(ctx, ds, revisit)
	if err != nil {
		return 0, err
	}
	for id, rec := range candidates {
		if _, ok := c.base[id]; ok {
			continue // revisit proved it plain (or another pass won)
		}
		p.label(&rec)
		ds.Comments = append(ds.Comments, rec)
		c.base[id] = rec
		added++
	}
	return added, nil
}

// mirrorLabeled mirrors urls under every session — anonymously first,
// then each authenticated pass with revisit-verified labeling — and
// returns how many comments the mirror gained.
func (c *Campaign) mirrorLabeled(ctx context.Context, ds *corpus.Dataset, urls map[string]bool) (int, error) {
	added, err := c.mirrorPlain(ctx, ds, urls)
	if err != nil {
		return 0, err
	}
	for _, p := range c.passes() {
		n, err := c.mirrorAuthed(ctx, ds, urls, p)
		if err != nil {
			return 0, err
		}
		added += n
	}
	return added, nil
}

// differential re-spiders with the authenticated sessions — user pages
// first (shadow-only URLs never appear on anonymous profiles), then the
// expanded URL set — and labels comments that only appear with a given
// view setting enabled (§3.2). It is mirrorLabeled unrolled: the
// anonymous baseline of the universe already exists, so only the URLs a
// session's home pages add are mirrored anonymously.
func (c *Campaign) differential(ctx context.Context, ds *corpus.Dataset, names []string) error {
	for _, p := range c.passes() {
		fresh, err := c.sweepHomePages(ctx, names, []*Crawler{p.web}, nil)
		if err != nil {
			return err
		}
		// URLs surfacing only under this session still need an anonymous
		// baseline: without it, plain comments sharing a page with shadow
		// content would be mislabeled as hidden.
		if _, err := c.mirrorPlain(ctx, ds, fresh); err != nil {
			return err
		}
		if _, err := c.mirrorAuthed(ctx, ds, c.urlSet, p); err != nil {
			return err
		}
	}
	return nil
}

// rawURLOf resolves a mirrored commenturl-id back to the raw URL it was
// first observed under.
func (c *Campaign) rawURLOf(urlID string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.seenURLIDs[urlID]
	return raw, ok
}

// mineHiddenMeta fetches one comment page per distinct author to recover
// the hidden commentAuthor metadata, creating user records for authors
// whose Gab accounts no longer exist (§4.1.1).
func (c *Campaign) mineHiddenMeta(ctx context.Context, ds *corpus.Dataset) error {
	userIdx := map[string]int{}
	for i := range ds.Users {
		userIdx[ds.Users[i].AuthorID] = i
	}
	// One representative comment per author: the lowest comment-id, so
	// the choice does not depend on the order workers finished in.
	repComment := map[string]string{}
	for _, cm := range ds.Comments {
		if rep, ok := repComment[cm.AuthorID]; !ok || cm.ID < rep {
			repComment[cm.AuthorID] = cm.ID
		}
	}
	authors := make([]string, 0, len(repComment))
	for a := range repComment {
		authors = append(authors, a)
	}
	sort.Strings(authors)

	// Authenticated view needed: the representative comment might itself
	// be shadow content.
	web := c.Web
	if c.NSFWWeb != nil {
		web = c.NSFWWeb
	}
	var mu sync.Mutex
	return crawlkit.ForEach(ctx, authors, c.Workers, func(ctx context.Context, author string) error {
		meta, ok, err := web.FetchCommentMeta(ctx, repComment[author])
		if err != nil {
			return err
		}
		if !ok {
			if c.OffensiveWeb != nil {
				meta, ok, err = c.OffensiveWeb.FetchCommentMeta(ctx, repComment[author])
				if err != nil {
					return err
				}
			}
			if !ok {
				return nil
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if i, ok := userIdx[author]; ok {
			u := &ds.Users[i]
			u.Language = meta.Language
			u.Flags = meta.Permissions
			u.Filters = meta.ViewFilters
			return nil
		}
		// A commenter absent from the Gab enumeration: a deleted Gab
		// account whose Dissenter presence persists (§4.1.1).
		ds.Users = append(ds.Users, corpus.User{
			AuthorID:       author,
			Username:       meta.Username,
			Language:       meta.Language,
			Flags:          meta.Permissions,
			Filters:        meta.ViewFilters,
			MissingFromGab: true,
		})
		userIdx[author] = len(ds.Users) - 1
		return nil
	})
}

// harvestMissingUserPages visits the Dissenter home pages of users whose
// Gab accounts are deleted — the enumeration never produced their
// usernames, so their profile pages (and any URLs only they commented
// on) are reachable only after hidden-metadata mining names them. It
// reports whether anything new was discovered.
func (c *Campaign) harvestMissingUserPages(ctx context.Context, ds *corpus.Dataset) (bool, error) {
	if c.harvestedMissing == nil {
		c.harvestedMissing = map[string]bool{}
	}
	idxByName := map[string]int{}
	var names []string
	for i := range ds.Users {
		u := &ds.Users[i]
		if u.MissingFromGab && !c.harvestedMissing[u.Username] {
			c.harvestedMissing[u.Username] = true
			idxByName[u.Username] = i
			names = append(names, u.Username)
		}
	}
	if len(names) == 0 {
		return false, nil
	}
	sort.Strings(names)
	// Fetch each page with every session: a deleted user's profile may
	// list URLs only when the viewer can see their shadow comments.
	fresh, err := c.sweepHomePages(ctx, names, c.sessions(), func(name string, up UserPage) {
		u := &ds.Users[idxByName[name]]
		if u.DisplayName == "" {
			u.DisplayName = up.DisplayName
		}
		if u.Bio == "" {
			u.Bio = up.Bio
		}
	})
	if err != nil || len(fresh) == 0 {
		return false, err
	}
	// Shadow content on the fresh URLs is labeled exactly as the main
	// differential pass labels it.
	if _, err := c.mirrorLabeled(ctx, ds, fresh); err != nil {
		return false, err
	}
	return true, nil
}

// socialCrawl pulls the Gab follow graph for every Dissenter user and
// keeps only edges between Dissenter users (§3.4).
func (c *Campaign) socialCrawl(ctx context.Context, ds *corpus.Dataset) error {
	dissenter := map[string]bool{}
	var names []string
	for i := range ds.Users {
		dissenter[ds.Users[i].Username] = true
		names = append(names, ds.Users[i].Username)
	}
	sort.Strings(names)
	var mu sync.Mutex
	return crawlkit.ForEach(ctx, names, c.Workers, func(ctx context.Context, name string) error {
		acct, ok := c.gabByUsername[name]
		if !ok {
			return nil // deleted Gab account: no social data available
		}
		following, err := c.Gab.Relations(ctx, acct.GabID, gabcrawl.Following)
		if err != nil {
			return err
		}
		var kept []string
		for _, f := range following {
			if dissenter[f.Username] {
				kept = append(kept, f.Username)
			}
		}
		if len(kept) > 0 {
			mu.Lock()
			ds.Graph[name] = kept
			mu.Unlock()
		}
		return nil
	})
}
