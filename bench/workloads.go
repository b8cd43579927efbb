package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// The workloads are data (workloads.json), after sfetch's corpus
// manifest: each entry names its traffic shape and carries a note
// saying why it exists. This file turns an entry plus a seed into the
// per-client op lists the load generator replays.

//go:embed workloads.json
var workloadsJSON []byte

type opSpec struct {
	Op string `json:"op"`
	// Weight is the op's share of a "mix" and its repeat count in a
	// "cycle".
	Weight int `json:"weight"`
	// Conditional is the share of this op's requests that revalidate
	// with the last ETag the client saw for the page.
	Conditional float64 `json:"conditional"`
}

type workload struct {
	Name string `json:"name"`
	Note string `json:"note"`
	// Via is the fleet member the clients connect to: "gateway" or
	// "primary".
	Via string `json:"via"`
	// Shape is how ops are drawn: "mix" (weighted random, Zipf
	// targets), "cycle" (the ops in order, repeated) or "scan" (every
	// sampled URL under every view once, shuffled).
	Shape string `json:"shape"`
	// URLs is the target population: the N most-commented URLs for
	// mix and cycle, N distinct URLs sampled by seed for scan.
	URLs    int     `json:"urls"`
	Zipf    float64 `json:"zipf"`
	Users   int     `json:"users"`
	Authors int     `json:"authors"`
	// Unseen is the share of comment ops (mix) or of extra scan ops
	// addressed to URLs the corpus never held.
	Unseen float64  `json:"unseen"`
	Views  []string `json:"views"`
	// Prefill fetches every distinct read target once during warm-up,
	// so the measured window starts from a full cache.
	Prefill bool     `json:"prefill"`
	Ops     []opSpec `json:"ops"`
}

func loadWorkloads() ([]workload, error) {
	var ws []workload
	if err := json.Unmarshal(workloadsJSON, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return ws, nil
}

func findWorkload(ws []workload, name string) *workload {
	for i := range ws {
		if ws[i].Name == name {
			return &ws[i]
		}
	}
	return nil
}

type opKind uint8

const (
	opDiscussion opKind = iota
	opTrends
	opUser
	opComment
	opVote
)

var opKinds = map[string]opKind{
	"discussion": opDiscussion, "trends": opTrends, "user": opUser,
	"comment": opComment, "vote": opVote,
}

func (k opKind) isWrite() bool { return k == opComment || k == opVote }

// op is one request. Everything it refers to is built before the
// clock starts: the escaped path and query in plan.targets, the cookie
// in plan.sessions, the form text in plan.texts.
type op struct {
	kind    opKind
	cond    bool
	session uint8
	text    uint16
	target  int32
}

// target is one addressable page.
type target struct {
	path, query string
	// raw is the page's URL as the corpus spells it (empty for trends
	// and user pages); known reports whether the corpus holds it.
	raw   string
	known bool
}

// plan is a workload instantiated for one seed: the op lists of every
// client and the tables they index.
type plan struct {
	w        *workload
	targets  []target
	sessions []string // cookie header values; index 0 is "no session"
	texts    []string // query-escaped comment texts
	warm     [][]op
	ops      [][]op
	// urlIDs are the commenturl-ids of the known discussion targets,
	// in target order, for the layer probes.
	urlIDs []ids.ObjectID
}

// sizing fixes the corpus and the op-list lengths. A run that outlasts
// its list wraps round: reads repeat, scans still miss (the key set
// dwarfs the cache) and a repeated comment is simply another comment.
type sizing struct {
	// scale is the synth corpus scale; 1/16 gives about 36.7k URLs and
	// 112k comments.
	scale float64
	// ops and warm are the measured and warm-up ops drawn per client
	// (mix and cycle; a scan's length is set by its URL count).
	ops, warm int
}

var fullSize = sizing{scale: 0.0625, ops: 1 << 18, warm: 500}

// writerSessions is how many author sessions the fleet registers
// ("w0".."w63"), the upper bound on a workload's Authors.
const writerSessions = 64

// corpusFacts are the rankings op generation draws from.
type corpusFacts struct {
	byComments []*platform.CommentURL // most-commented first
	byURL      []*platform.CommentURL // sorted by URL
	authors    []string               // most active Dissenter authors first
}

func surveyCorpus(db *platform.DB) corpusFacts {
	perURL := map[ids.ObjectID]int{}
	perAuthor := map[ids.ObjectID]int{}
	db.RangeComments(func(c *platform.Comment) bool {
		perURL[c.URLID]++
		perAuthor[c.AuthorID]++
		return true
	})
	var f corpusFacts
	db.RangeURLs(func(cu *platform.CommentURL) bool {
		f.byURL = append(f.byURL, cu)
		return true
	})
	sort.Slice(f.byURL, func(i, j int) bool { return f.byURL[i].URL < f.byURL[j].URL })
	f.byComments = append(f.byComments, f.byURL...)
	sort.SliceStable(f.byComments, func(i, j int) bool {
		return perURL[f.byComments[i].ID] > perURL[f.byComments[j].ID]
	})
	type ranked struct {
		name string
		n    int
	}
	var rs []ranked
	for id, n := range perAuthor {
		// A commenter whose Gab side is deleted has no home page.
		if u := db.UserByAuthorID(id); u != nil && u.HasDissenter {
			rs = append(rs, ranked{u.Username, n})
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].n != rs[j].n {
			return rs[i].n > rs[j].n
		}
		return rs[i].name < rs[j].name
	})
	for _, r := range rs {
		f.authors = append(f.authors, r.name)
	}
	return f
}

// planner accumulates a plan's tables while ops are drawn.
type planner struct {
	p    *plan
	seed int64
}

func (b *planner) addTarget(t target) int32 {
	b.p.targets = append(b.p.targets, t)
	return int32(len(b.p.targets) - 1)
}

func (b *planner) discussion(raw string, known bool) int32 {
	return b.addTarget(target{path: "/discussion", query: "url=" + url.QueryEscape(raw), raw: raw, known: known})
}

func (b *planner) unseen(n int) int32 {
	return b.discussion(fmt.Sprintf("https://unseen.example/%d/%d", b.seed, n), false)
}

// makePlan draws the op lists of w for clients clients from seed. The
// same (corpus, workload, seed, clients) always yields the same plan.
func makePlan(w *workload, facts corpusFacts, size sizing, seed int64, clients int) (*plan, error) {
	p := &plan{w: w, sessions: []string{""}}
	b := &planner{p: p, seed: seed}
	for _, v := range w.Views {
		if v != "" {
			p.sessions = append(p.sessions, "session="+v)
		}
	}
	authorBase := len(p.sessions)
	if w.Authors > writerSessions {
		return nil, fmt.Errorf("%s: authors %d exceeds the %d registered sessions", w.Name, w.Authors, writerSessions)
	}
	for i := 0; i < w.Authors; i++ {
		p.sessions = append(p.sessions, fmt.Sprintf("session=w%d", i))
	}
	texts := synth.NewTextSampler(seed)
	for i := 0; i < 512; i++ {
		p.texts = append(p.texts, url.QueryEscape(texts.MixedComment(synth.ToneMix{Hateful: 0.1, Offensive: 0.2, Grumble: 0.3, Positive: 0.1})))
	}
	if w.URLs > len(facts.byURL) {
		return nil, fmt.Errorf("%s: wants %d URLs, corpus has %d", w.Name, w.URLs, len(facts.byURL))
	}
	var kinds []opKind
	var conds []float64
	for _, s := range w.Ops {
		k, ok := opKinds[s.Op]
		if !ok {
			return nil, fmt.Errorf("%s: unknown op %q", w.Name, s.Op)
		}
		for i := 0; i < s.Weight; i++ {
			kinds = append(kinds, k)
			conds = append(conds, s.Conditional)
		}
	}

	if w.Shape == "scan" {
		rng := rand.New(rand.NewSource(seed))
		var all []op
		for _, i := range rng.Perm(len(facts.byURL))[:w.URLs] {
			cu := facts.byURL[i]
			t := b.discussion(cu.URL, true)
			p.urlIDs = append(p.urlIDs, cu.ID)
			for s := range w.Views {
				// Views[0] is the anonymous view: session index 0.
				all = append(all, op{kind: opDiscussion, target: t, session: uint8(s)})
			}
		}
		for i, n := 0, int(w.Unseen*float64(len(all))); i < n; i++ {
			all = append(all, op{kind: opDiscussion, target: b.unseen(i)})
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		p.warm, p.ops = make([][]op, clients), make([][]op, clients)
		for i, o := range all {
			p.ops[i%clients] = append(p.ops[i%clients], o)
		}
		for c := range p.ops {
			if len(p.ops[c]) <= size.warm {
				return nil, fmt.Errorf("%s: %d ops per client leave nothing after %d warm-up ops", w.Name, len(p.ops[c]), size.warm)
			}
			p.warm[c], p.ops[c] = p.ops[c][:size.warm], p.ops[c][size.warm:]
		}
		return p, nil
	}

	// mix and cycle address the most-commented URLs.
	disc := make([]int32, w.URLs)
	vote := make([]int32, w.URLs)
	for i, cu := range facts.byComments[:w.URLs] {
		disc[i] = b.discussion(cu.URL, true)
		p.urlIDs = append(p.urlIDs, cu.ID)
		vote[i] = b.addTarget(target{path: "/discussion/vote", query: "url=" + url.QueryEscape(cu.URL) + "&dir=up", raw: cu.URL, known: true})
	}
	trends := b.addTarget(target{path: "/trends"})
	if w.Users > len(facts.authors) {
		return nil, fmt.Errorf("%s: wants %d users, corpus has %d", w.Name, w.Users, len(facts.authors))
	}
	users := make([]int32, w.Users)
	for i := range users {
		users[i] = b.addTarget(target{path: "/user/" + url.PathEscape(facts.authors[i])})
	}
	unseen := 0
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		// zipf returns a rank picker over n items; without a Zipf
		// exponent (the one-URL herd) every pick is rank 0.
		zipf := func(n int) func() int {
			if w.Zipf <= 1 || n < 2 {
				return func() int { return 0 }
			}
			z := rand.NewZipf(rng, w.Zipf, 1, uint64(n-1))
			return func() int { return int(z.Uint64()) }
		}
		pickURL, pickUser := zipf(w.URLs), zipf(w.Users)
		list := make([]op, size.ops+size.warm)
		for i := range list {
			j := i % len(kinds)
			if w.Shape == "mix" {
				j = rng.Intn(len(kinds))
			}
			o := op{kind: kinds[j]}
			switch o.kind {
			case opDiscussion:
				o.target = disc[pickURL()]
				o.cond = rng.Float64() < conds[j]
			case opTrends:
				o.target = trends
			case opUser:
				o.target = users[pickUser()]
			case opVote:
				o.target = vote[pickURL()]
			case opComment:
				if rng.Float64() < w.Unseen {
					o.target = b.unseen(unseen)
					unseen++
				} else {
					o.target = disc[pickURL()]
				}
				o.session = uint8(authorBase + rng.Intn(w.Authors))
				o.text = uint16(rng.Intn(len(p.texts)))
			}
			list[i] = o
		}
		p.warm = append(p.warm, list[:size.warm])
		p.ops = append(p.ops, list[size.warm:])
	}
	return p, nil
}
