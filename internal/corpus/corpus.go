// Package corpus defines the crawled-dataset model — the mirror of the
// Dissenter database that the measurement campaign of §3 produces — and
// its JSONL persistence. Everything downstream (internal/analysis)
// consumes this representation, never the ground-truth platform.DB: the
// pipeline only knows what the crawlers observed.
package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// User is one observed Dissenter user.
type User struct {
	AuthorID    string    `json:"author_id"`
	Username    string    `json:"username"`
	DisplayName string    `json:"display_name,omitempty"`
	Bio         string    `json:"bio,omitempty"`
	GabID       int64     `json:"gab_id,omitempty"`
	GabCreated  time.Time `json:"gab_created,omitempty"`
	// MissingFromGab marks users found on Dissenter whose Gab account no
	// longer exists (§4.1.1's ~1,300 deleted accounts).
	MissingFromGab bool `json:"missing_from_gab,omitempty"`
	// Hidden commentAuthor metadata (§3.2).
	Language string          `json:"language,omitempty"`
	Flags    map[string]bool `json:"flags,omitempty"`
	Filters  map[string]bool `json:"filters,omitempty"`
}

// URL is one observed comment page.
type URL struct {
	ID          string `json:"commenturl_id"`
	URL         string `json:"url"`
	Title       string `json:"title,omitempty"`
	Description string `json:"description,omitempty"`
	Ups         int    `json:"ups"`
	Downs       int    `json:"downs"`
}

// NetVotes returns ups minus downs.
func (u URL) NetVotes() int { return u.Ups - u.Downs }

// Comment is one observed comment or reply.
type Comment struct {
	ID       string `json:"comment_id"`
	URLID    string `json:"commenturl_id"`
	AuthorID string `json:"author_id"`
	ParentID string `json:"parent_id,omitempty"`
	Text     string `json:"text"`
	// NSFW and Offensive are *inferred* labels from the differential
	// authenticated crawls of §3.2, not platform-provided flags.
	NSFW      bool `json:"nsfw,omitempty"`
	Offensive bool `json:"offensive,omitempty"`
}

// IsReply reports whether the comment has a parent.
func (c Comment) IsReply() bool { return c.ParentID != "" }

// Dataset is the full crawled mirror.
type Dataset struct {
	Users    []User
	URLs     []URL
	Comments []Comment
	// Graph is the Dissenter-restricted follower graph from §3.4:
	// username -> usernames they follow (non-Dissenter targets removed).
	Graph map[string][]string

	byAuthor   map[string]*User
	byUsername map[string]*User
	byURLID    map[string]*URL
	commentsBy map[string][]int // author id -> comment indices
	onURL      map[string][]int // url id -> comment indices
}

// Reindex builds the lookup maps; call after mutating the raw slices.
func (d *Dataset) Reindex() {
	d.byAuthor = make(map[string]*User, len(d.Users))
	d.byUsername = make(map[string]*User, len(d.Users))
	for i := range d.Users {
		d.byAuthor[d.Users[i].AuthorID] = &d.Users[i]
		d.byUsername[d.Users[i].Username] = &d.Users[i]
	}
	d.byURLID = make(map[string]*URL, len(d.URLs))
	for i := range d.URLs {
		d.byURLID[d.URLs[i].ID] = &d.URLs[i]
	}
	d.commentsBy = make(map[string][]int)
	d.onURL = make(map[string][]int)
	for i := range d.Comments {
		c := &d.Comments[i]
		d.commentsBy[c.AuthorID] = append(d.commentsBy[c.AuthorID], i)
		d.onURL[c.URLID] = append(d.onURL[c.URLID], i)
	}
}

// UserByAuthorID resolves an author id, or nil.
func (d *Dataset) UserByAuthorID(id string) *User { return d.byAuthor[id] }

// UserByUsername resolves a username, or nil.
func (d *Dataset) UserByUsername(name string) *User { return d.byUsername[name] }

// URLByID resolves a commenturl-id, or nil.
func (d *Dataset) URLByID(id string) *URL { return d.byURLID[id] }

// CommentsByAuthor returns the indices of an author's comments.
func (d *Dataset) CommentsByAuthor(id string) []int { return d.commentsBy[id] }

// CommentsOnURL returns the indices of a page's comments.
func (d *Dataset) CommentsOnURL(id string) []int { return d.onURL[id] }

// The Range accessors iterate the corpus in place, handing out
// pointers into the backing slices — the full-corpus analysis loops
// walk millions of comments this way without materializing per-pass
// copies. The pointers are invalidated by slice mutation + Reindex,
// like every other accessor's.

// RangeUsers calls f for each user until f returns false.
func (d *Dataset) RangeUsers(f func(*User) bool) {
	for i := range d.Users {
		if !f(&d.Users[i]) {
			return
		}
	}
}

// RangeURLs calls f for each URL until f returns false.
func (d *Dataset) RangeURLs(f func(*URL) bool) {
	for i := range d.URLs {
		if !f(&d.URLs[i]) {
			return
		}
	}
}

// RangeComments calls f for each comment until f returns false.
func (d *Dataset) RangeComments(f func(*Comment) bool) {
	for i := range d.Comments {
		if !f(&d.Comments[i]) {
			return
		}
	}
}

// ActiveUsers returns users with at least one observed comment.
func (d *Dataset) ActiveUsers() []*User {
	var out []*User
	for i := range d.Users {
		if len(d.commentsBy[d.Users[i].AuthorID]) > 0 {
			out = append(out, &d.Users[i])
		}
	}
	return out
}

// Texts returns every comment body (the classification input).
func (d *Dataset) Texts() []string {
	out := make([]string, len(d.Comments))
	for i, c := range d.Comments {
		out[i] = c.Text
	}
	return out
}

// graphEdge is one graph.jsonl line: a user and whom they follow.
type graphEdge struct {
	From string   `json:"from"`
	To   []string `json:"to"`
}

// Save writes the dataset as JSONL files under dir (users.jsonl,
// urls.jsonl, comments.jsonl, graph.jsonl), creating dir if needed.
// Records are written in slice order and the graph by username, so a
// dataset saves to the same bytes every time.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := writeJSONL(filepath.Join(dir, "users.jsonl"), d.Users); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "urls.jsonl"), d.URLs); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "comments.jsonl"), d.Comments); err != nil {
		return err
	}
	edges := make([]graphEdge, 0, len(d.Graph))
	for from, to := range d.Graph {
		edges = append(edges, graphEdge{from, to})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].From < edges[j].From })
	return writeJSONL(filepath.Join(dir, "graph.jsonl"), edges)
}

// Load reads a dataset previously written by Save and reindexes it.
func Load(dir string) (*Dataset, error) {
	d := &Dataset{Graph: map[string][]string{}}
	var err error
	if d.Users, err = readJSONL[User](filepath.Join(dir, "users.jsonl")); err != nil {
		return nil, err
	}
	if d.URLs, err = readJSONL[URL](filepath.Join(dir, "urls.jsonl")); err != nil {
		return nil, err
	}
	if d.Comments, err = readJSONL[Comment](filepath.Join(dir, "comments.jsonl")); err != nil {
		return nil, err
	}
	edges, err := readJSONL[graphEdge](filepath.Join(dir, "graph.jsonl"))
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		d.Graph[e.From] = e.To
	}
	d.Reindex()
	return d, nil
}

func writeJSONL[T any](path string, items []T) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, item := range items {
		if err := enc.Encode(item); err != nil {
			f.Close()
			return fmt.Errorf("corpus: encode %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("corpus: %w", err)
	}
	return f.Close()
}

func readJSONL[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	var items []T
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 1 {
			var item T
			if perr := json.Unmarshal(line, &item); perr != nil {
				return nil, fmt.Errorf("corpus: parse %s: %w", path, perr)
			}
			items = append(items, item)
		}
		if err == io.EOF {
			return items, nil
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: read %s: %w", path, err)
		}
	}
}
