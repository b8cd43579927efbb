package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dissenter/internal/allsides"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/youtube"
)

// Output bundles the generated deployment: the platform database the
// simulators serve, the YouTube ground truth, and — for calibration tests
// only — the latent tone of every comment and the constructed hateful
// core. The measurement pipeline must never read Tones or CoreUsernames;
// it has to rediscover them from the observable surface.
type Output struct {
	DB      *platform.DB
	YouTube *youtube.Site

	Tones         map[ids.ObjectID]Tone
	CoreUsernames []string
}

// Generate builds the synthetic deployment for cfg. It is deterministic:
// equal configs produce equal outputs.
func Generate(cfg Config) *Output {
	if cfg.GabUsers == 0 { // zero-value config: use defaults
		cfg = NewConfig(cfg.Scale, cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idgen := ids.NewGenerator(uint64(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng, idgen: idgen, text: newTextGen(rng)}
	g.out = &Output{Tones: map[ids.ObjectID]Tone{}}

	g.makeUsers()
	g.makeURLs()
	g.makeComments()
	g.makeVotes()
	g.makeSocialGraph()
	g.finishYouTube()

	g.out.DB = platform.New(g.users, g.urls, g.comments, g.follows)
	return g.out
}

type generator struct {
	cfg   Config
	rng   *rand.Rand
	idgen *ids.Generator
	text  *textGen
	out   *Output

	users    []*platform.User
	urls     []*platform.CommentURL
	comments []*platform.Comment
	follows  map[ids.GabID][]ids.GabID

	dissenterIdx []int       // indices into users with Dissenter accounts
	activeIdx    []int       // indices with >= 1 comment budget
	coreIdx      []int       // the constructed hateful core, grouped by component
	counts       map[int]int // user index -> comment budget
	propensity   map[int]float64

	genURLs  []genURL // parallel to urls
	urlBias  []allsides.Bias
	urlVotes []int // net vote plan, parallel to urls

	ytVideos []youtube.Video
}

// --- users -----------------------------------------------------------

var handleSyllables = []string{
	"free", "truth", "eagle", "patriot", "liberty", "storm", "wolf",
	"iron", "deep", "red", "silent", "night", "digital", "shadow",
	"thunder", "north", "real", "based", "awake", "hidden",
}

func (g *generator) handle(i int) string {
	s := handleSyllables[g.rng.Intn(len(handleSyllables))] +
		handleSyllables[g.rng.Intn(len(handleSyllables))]
	return fmt.Sprintf("%s%d", s, i)
}

func (g *generator) makeUsers() {
	cfg := g.cfg
	n := cfg.GabUsers
	span := cfg.End.Sub(cfg.GabLaunch)

	// Gab IDs are assigned by a counter, but a small pool of low IDs is
	// held back and handed to accounts created inside two later anomaly
	// windows — reproducing the two non-monotone stripes of Figure 2.
	gapCount := n / 100
	if gapCount < 2 {
		gapCount = 2
	}
	gapIDs := make([]ids.GabID, 0, gapCount)
	gapSet := make(map[ids.GabID]bool, gapCount)
	for len(gapIDs) < gapCount {
		id := ids.GabID(2 + g.rng.Int63n(int64(n/2)))
		if !gapSet[id] {
			gapSet[id] = true
			gapIDs = append(gapIDs, id)
		}
	}
	sort.Slice(gapIDs, func(i, j int) bool { return gapIDs[i] < gapIDs[j] })

	anomaly1 := cfg.GabLaunch.Add(span * 7 / 10)
	anomaly2 := cfg.GabLaunch.Add(span * 9 / 10)

	g.users = make([]*platform.User, 0, n)
	nextID := ids.GabID(1)
	allocID := func() ids.GabID {
		for gapSet[nextID] {
			nextID++
		}
		id := nextID
		nextID++
		return id
	}
	usedGaps := 0
	for i := 0; i < n; i++ {
		// Creation times grow sublinearly early, then accelerate — the
		// rough shape of Gab's real growth.
		frac := float64(i) / float64(n)
		created := cfg.GabLaunch.Add(time.Duration(float64(span) * (0.25*frac + 0.75*frac*frac)))
		var gid ids.GabID
		inAnomaly := (created.After(anomaly1) && created.Before(anomaly1.Add(30*24*time.Hour))) ||
			(created.After(anomaly2) && created.Before(anomaly2.Add(30*24*time.Hour)))
		if inAnomaly && usedGaps < len(gapIDs) && g.rng.Float64() < 0.5 {
			gid = gapIDs[usedGaps]
			usedGaps++
		} else {
			gid = allocID()
		}
		u := &platform.User{
			GabID:     gid,
			Username:  g.handle(i),
			CreatedAt: created,
			Language:  sampleLanguage(g.rng),
			Flags: platform.UserFlags{
				CanLogin: true, CanPost: true, CanReport: true,
				CanChat: true, CanVote: true,
			},
			Filters: platform.ViewFilters{Pro: true, Verified: true, Standard: true},
		}
		g.users = append(g.users, u)
	}
	// Named accounts: @e is Gab ID 1; @a and @shadowknight412 are the two
	// admins, both on Dissenter.
	g.users[0].Username = "e"
	g.users[0].DisplayName = "Ekrem Büyükkaya"
	if len(g.users) > 2 {
		g.users[1].Username = "a"
		g.users[1].DisplayName = "Andrew Torba"
		g.users[2].Username = "shadowknight412"
		g.users[2].DisplayName = "Rob Colbert"
	}

	// Dissenter accounts. The 77% first-month join share is over ALL
	// Dissenter users, but only Gab accounts that existed during the
	// launch window can join then — condition the per-user probability on
	// the eligible fraction so the aggregate hits the target.
	firstMonthEnd := cfg.DissenterLaunch.Add(37 * 24 * time.Hour)
	eligible := 0
	for _, u := range g.users {
		if u.CreatedAt.Before(firstMonthEnd) {
			eligible++
		}
	}
	firstMonthP := cfg.FirstMonthJoinRate
	if frac := float64(eligible) / float64(len(g.users)); frac > 0 {
		firstMonthP = cfg.FirstMonthJoinRate / frac
		if firstMonthP > 0.98 {
			firstMonthP = 0.98
		}
	}
	for i, u := range g.users {
		isAdmin := u.Username == "a" || u.Username == "shadowknight412"
		if !isAdmin && !bernoulli(g.rng, cfg.DissenterFraction) {
			continue
		}
		u.HasDissenter = true
		start := cfg.DissenterLaunch
		if u.CreatedAt.After(start) {
			start = u.CreatedAt
		}
		var joined time.Time
		if bernoulli(g.rng, firstMonthP) && start.Before(firstMonthEnd) {
			joined = randTime(g.rng, start, firstMonthEnd)
		} else {
			lo := start
			if lo.Before(firstMonthEnd) {
				lo = firstMonthEnd
			}
			joined = randTime(g.rng, lo, cfg.End)
		}
		u.AuthorID = g.idgen.NewAt(joined)
		u.Bio = g.text.bioFor(bernoulli(g.rng, cfg.CensorshipBioRate))
		if u.DisplayName == "" && g.rng.Float64() < 0.4 {
			u.DisplayName = strings.Title(u.Username)
		}
		u.Flags.IsAdmin = isAdmin
		u.Flags.IsPro = bernoulli(g.rng, cfg.ProRate)
		u.Flags.IsDonor = bernoulli(g.rng, cfg.DonorRate)
		u.Flags.IsInvestor = bernoulli(g.rng, cfg.InvestorRate)
		u.Flags.IsPremium = bernoulli(g.rng, cfg.PremiumRate)
		u.Flags.IsTippable = bernoulli(g.rng, cfg.TippableRate)
		u.Flags.IsPrivate = bernoulli(g.rng, cfg.PrivateRate)
		u.Flags.Verified = bernoulli(g.rng, cfg.VerifiedRate)
		u.Filters.NSFW = bernoulli(g.rng, cfg.FilterNSFW)
		u.Filters.Offensive = bernoulli(g.rng, cfg.FilterOffensive)
		g.dissenterIdx = append(g.dissenterIdx, i)
	}
}

func randTime(rng *rand.Rand, lo, hi time.Time) time.Time {
	if !hi.After(lo) {
		return lo
	}
	return lo.Add(time.Duration(rng.Int63n(int64(hi.Sub(lo)))))
}

// --- URLs --------------------------------------------------------------

func (g *generator) makeURLs() {
	cfg := g.cfg
	web := newWebGen(g.rng)
	specials := specialURLs(cfg, web)
	organic := cfg.URLs - len(specials)
	if organic < 1 {
		organic = 1
	}
	g.genURLs = make([]genURL, 0, organic+len(specials))
	for i := 0; i < organic; i++ {
		g.genURLs = append(g.genURLs, web.next())
	}
	g.genURLs = append(g.genURLs, specials...)
	for i := range g.genURLs {
		if v := g.genURLs[i].video; v != nil {
			g.ytVideos = append(g.ytVideos, *v)
		}
		g.urlBias = append(g.urlBias, allsides.Rate(g.genURLs[i].url))
	}
	// Vote plan per URL (Figure 5's x-axis); drawn before tones so
	// heavily-voted URLs can damp comment toxicity.
	g.urlVotes = make([]int, len(g.genURLs))
	for i := range g.urlVotes {
		switch p := g.rng.Float64(); {
		case p < cfg.VoteZeroRate:
			g.urlVotes[i] = 0
		case p < cfg.VoteZeroRate+cfg.VotePositiveRate:
			g.urlVotes[i] = boundedPareto(g.rng, 2.3, 1, 300)
		default:
			g.urlVotes[i] = -boundedPareto(g.rng, 2.3, 1, 300)
		}
	}
}

// --- comments -----------------------------------------------------------

func (g *generator) makeComments() {
	cfg := g.cfg

	// Choose the active users and their comment budgets (Zipf-ish head).
	nActive := int(float64(len(g.dissenterIdx)) * cfg.ActiveFraction)
	if nActive < cfg.coreTotal()+10 {
		nActive = min(len(g.dissenterIdx), cfg.coreTotal()+10)
	}
	perm := g.rng.Perm(len(g.dissenterIdx))
	for _, j := range perm[:nActive] {
		g.activeIdx = append(g.activeIdx, g.dissenterIdx[j])
	}

	// The hateful core: users from the middle of the activity range —
	// the paper stresses they are NOT the most prolific commenters.
	g.coreIdx = append([]int{}, g.activeIdx[:cfg.coreTotal()]...)
	coreSet := make(map[int]bool, len(g.coreIdx))
	for _, i := range g.coreIdx {
		coreSet[i] = true
		g.out.CoreUsernames = append(g.out.CoreUsernames, g.users[i].Username)
	}

	weights := zipfWeights(len(g.activeIdx), 1.25)
	g.rng.Shuffle(len(weights), func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	sampler := newCumSampler(weights)
	g.counts = make(map[int]int, len(g.activeIdx))
	for k := 0; k < cfg.Comments; k++ {
		g.counts[g.activeIdx[sampler.sample(g.rng)]]++
	}
	for _, i := range g.activeIdx {
		if g.counts[i] == 0 {
			g.counts[i] = 1
		}
	}
	for _, i := range g.coreIdx {
		if g.counts[i] < cfg.HatefulCoreMinComments {
			g.counts[i] = cfg.HatefulCoreMinComments + g.rng.Intn(cfg.HatefulCoreMinComments)
		}
	}

	// Toxicity propensity: core users are intensely hateful; everyone
	// else is right-skewed low. Heavy non-core commenters are capped so
	// that no organic user crosses the hateful-core qualification bar.
	g.propensity = make(map[int]float64, len(g.activeIdx))
	for _, i := range g.activeIdx {
		if coreSet[i] {
			g.propensity[i] = 0.92 + 0.08*g.rng.Float64()
			// Core users comment in English; a foreign-language override
			// would silently neutralize their tone.
			g.users[i].Language = "en"
			continue
		}
		p := betaish(g.rng, 2, 6) * 0.55
		if g.counts[i] >= cfg.HatefulCoreMinComments/2 && p > 0.35 {
			p = 0.35
		}
		g.propensity[i] = p
	}

	// Mark the banned accounts (8 active users; Table 1). Two have
	// recoverable stories: a spam account and a doxxer.
	banned := 0
	for _, i := range g.activeIdx {
		if banned >= cfg.BannedUsers {
			break
		}
		if coreSet[i] || g.users[i].Flags.IsAdmin {
			continue
		}
		u := g.users[i]
		u.Flags.IsBanned = true
		u.Flags.CanLogin = false
		u.Flags.CanPost = false
		u.Flags.CanChat = false
		u.Flags.CanVote = false
		switch banned {
		case 0:
			u.Bio = "premier home remodeling, call today for a free quote"
		case 1:
			u.Bio = "i know where they live"
		}
		banned++
	}

	// The ~1,300 commenters whose Gab accounts were later deleted: their
	// Dissenter pages and comments persist, but the Gab API forgets them
	// and they can no longer authenticate (§4.1.1).
	deleted := 0
	for _, i := range g.activeIdx {
		if deleted >= cfg.DeletedGabAccounts {
			break
		}
		u := g.users[i]
		if coreSet[i] || u.Flags.IsAdmin || u.Flags.IsBanned {
			continue
		}
		u.GabDeleted = true
		deleted++
	}

	// NSFW "labelers": the subset of users who actually use the label.
	// Core users never self-label — their extreme content sits in plain
	// sight, which is what makes the hateful-core finding interesting.
	labeler := make(map[int]bool)
	for _, i := range g.activeIdx {
		if !coreSet[i] && bernoulli(g.rng, 0.20) {
			labeler[i] = true
		}
	}

	// Per-URL comment budgets: most pages get a comment or two; a Pareto
	// tail gets many; two fringe pages get the paper's famous pile-ons.
	total := 0
	for _, c := range g.counts {
		total += c
	}
	urlCounts := make([]int, len(g.genURLs))
	running := 0
	for i := range urlCounts {
		urlCounts[i] = boundedPareto(g.rng, 2.0, 1, 400)
		running += urlCounts[i]
	}
	watcherIdx, deutschIdx := -1, -1
	for i, gu := range g.genURLs {
		if strings.Contains(gu.url, "thewatcherfiles.com") && watcherIdx < 0 {
			watcherIdx = i
		}
		if strings.Contains(gu.url, "deutschland.de") && deutschIdx < 0 {
			deutschIdx = i
		}
		// Browser-internal and file anchors attract curiosity comments,
		// not pile-ons; cap them so no chrome:// page outranks the fringe
		// sites in median volume.
		if !strings.Contains(gu.url, "://") || strings.HasPrefix(gu.url, "chrome:") ||
			strings.HasPrefix(gu.url, "about:") || strings.HasPrefix(gu.url, "file:") {
			if urlCounts[i] > 4 {
				running -= urlCounts[i] - 4
				urlCounts[i] = 4
			}
		}
	}
	if watcherIdx >= 0 {
		running += 116 - urlCounts[watcherIdx]
		urlCounts[watcherIdx] = 116
	}
	if deutschIdx >= 0 {
		running += 95 - urlCounts[deutschIdx]
		urlCounts[deutschIdx] = 95
	}
	for running < total {
		i := g.rng.Intn(len(urlCounts))
		urlCounts[i]++
		running++
	}
	for running > total {
		i := g.rng.Intn(len(urlCounts))
		if urlCounts[i] > 1 && i != watcherIdx && i != deutschIdx {
			urlCounts[i]--
			running--
		}
	}

	// Expand both sides into slot lists and zip them.
	authorSlots := make([]int, 0, total)
	for _, i := range g.activeIdx {
		for k := 0; k < g.counts[i]; k++ {
			authorSlots = append(authorSlots, i)
		}
	}
	g.rng.Shuffle(len(authorSlots), func(i, j int) {
		authorSlots[i], authorSlots[j] = authorSlots[j], authorSlots[i]
	})
	type slot struct{ urlIdx, authorIdx int }
	slots := make([]slot, 0, total)
	pos := 0
	for ui, c := range urlCounts {
		for k := 0; k < c && pos < len(authorSlots); k++ {
			slots = append(slots, slot{ui, authorSlots[pos]})
			pos++
		}
	}

	// Materialize comments per URL so replies can reference earlier
	// comments on the same page.
	byURL := make(map[int][]slot)
	for _, s := range slots {
		byURL[s.urlIdx] = append(byURL[s.urlIdx], s)
	}
	urlIdxs := make([]int, 0, len(byURL))
	for ui := range byURL {
		urlIdxs = append(urlIdxs, ui)
	}
	sort.Ints(urlIdxs)

	g.urls = make([]*platform.CommentURL, len(g.genURLs))
	for _, ui := range urlIdxs {
		group := byURL[ui]
		times := make([]time.Time, len(group))
		for k, s := range group {
			u := g.users[s.authorIdx]
			lo := u.AuthorID.Time()
			if lo.Before(cfg.DissenterLaunch) {
				lo = cfg.DissenterLaunch
			}
			// Whole seconds: ObjectID timestamps are second-granular, and
			// FirstSeen must not lead the first comment's embedded time.
			times[k] = randTime(g.rng, lo, cfg.End).Truncate(time.Second)
		}
		sort.Slice(times, func(a, b int) bool { return times[a].Before(times[b]) })

		cu := &platform.CommentURL{
			ID:          g.idgen.NewAt(times[0]),
			URL:         g.genURLs[ui].url,
			Title:       g.genURLs[ui].title,
			Description: g.genURLs[ui].description,
			FirstSeen:   times[0],
		}
		g.urls[ui] = cu

		var page []*platform.Comment
		for k, s := range group {
			c := g.makeComment(s.authorIdx, ui, cu, times[k], labeler[s.authorIdx])
			if k > 0 && bernoulli(g.rng, cfg.ReplyFraction) {
				c.ParentID = page[g.rng.Intn(len(page))].ID
			}
			page = append(page, c)
			g.comments = append(g.comments, c)
		}
	}
	// URLs that drew no comments still exist in Dissenter (submitted via
	// Gab Trends but never commented).
	for ui := range g.urls {
		if g.urls[ui] == nil {
			t := randTime(g.rng, cfg.DissenterLaunch, cfg.End).Truncate(time.Second)
			g.urls[ui] = &platform.CommentURL{
				ID:          g.idgen.NewAt(t),
				URL:         g.genURLs[ui].url,
				Title:       g.genURLs[ui].title,
				Description: g.genURLs[ui].description,
				FirstSeen:   t,
			}
		}
	}

	g.addHaComment()
}

// makeComment renders one comment with tone conditioned on author
// propensity, URL bias, and the URL's vote plan.
func (g *generator) makeComment(authorIdx, urlIdx int, cu *platform.CommentURL, at time.Time, isLabeler bool) *platform.Comment {
	cfg := g.cfg
	u := g.users[authorIdx]
	prop := g.propensity[authorIdx]
	bias := g.urlBias[urlIdx]
	votes := g.urlVotes[urlIdx]

	pHate := 0.04 + 0.62*prop
	pOff := 0.06 + 0.25*prop
	pAtt := 0.08
	pPos := 0.15 - 0.10*prop
	if prop >= 0.9 {
		// Hateful-core members: a solid majority of their comments must
		// be hateful so their per-user median toxicity clears the Â§4.5.1
		// bar under any URL mix.
		pHate = 0.72
		pOff = 0.14
	}

	switch bias {
	case allsides.Left:
		pAtt *= 2.2
	case allsides.LeftCenter:
		pAtt *= 1.6
		pHate *= 1.05
	case allsides.Center:
		pHate *= 1.35
	case allsides.RightCenter:
		pAtt *= 0.7
		pHate *= 0.85
	case allsides.Right:
		pAtt *= 0.5
		pHate *= 0.45
		pOff *= 0.7
		pPos += 0.15
	}
	if (votes >= 3 || votes <= -3) && prop < 0.7 {
		// Heavily voted pages attract milder commentary (Figure 5) —
		// except from the hateful core, whose zeal is vote-insensitive.
		pHate *= 0.35
		pOff *= 0.5
	}

	var tone Tone
	switch p := g.rng.Float64(); {
	case p < pHate:
		tone = ToneHateful
	case p < pHate+pOff:
		tone = ToneOffensive
	case p < pHate+pOff+pAtt:
		tone = ToneAttack
	case p < pHate+pOff+pAtt+pPos:
		tone = TonePositive
	default:
		tone = ToneNeutral
	}

	// Most "neutral" Dissenter comments are actually aggrieved grumbling:
	// moderators would reject them even though they carry no hate.
	if tone == ToneNeutral && g.rng.Float64() < 0.75 {
		tone = ToneGrumble
	}
	// Comment language is drawn per comment (stable shares even in small
	// corpora); the hateful core writes in English only.
	var text string
	if lang := sampleLanguage(g.rng); lang != "en" && prop < 0.9 {
		text = g.text.foreignComment(lang)
		tone = ToneNeutral
	} else {
		text = g.text.comment(tone)
	}

	c := &platform.Comment{
		ID:        g.idgen.NewAt(at),
		URLID:     cu.ID,
		AuthorID:  u.AuthorID,
		Text:      text,
		CreatedAt: at,
	}
	if isLabeler {
		switch tone {
		case ToneHateful:
			c.NSFW = bernoulli(g.rng, 0.45)
		case ToneOffensive:
			c.NSFW = bernoulli(g.rng, 0.18)
		}
	}
	if !c.NSFW && tone == ToneHateful && bernoulli(g.rng, cfg.OffensiveRate/0.20) {
		// Labels are disjoint: author-hidden (NSFW) content never also
		// receives the platform label, matching the paper's clean
		// ~10k/~8k split.
		// The platform's opaque "offensive" labeling catches the most
		// extreme content; hateful comments are ~20% of the corpus (the
		// constructed core inflates the share at small scales), so
		// dividing the global target by that share hits the overall rate.
		c.Offensive = true
	}
	g.out.Tones[c.ID] = tone
	return c
}

// addHaComment plants the corpus's famous longest comment: the word "ha"
// repeated 45,000 times on a YouTube video about Facebook's political
// bias (>90k characters).
func (g *generator) addHaComment() {
	ytIdx := -1
	for i, gu := range g.genURLs {
		if gu.video != nil && g.urls[i] != nil {
			ytIdx = i
			break
		}
	}
	if ytIdx < 0 || len(g.activeIdx) == 0 {
		return
	}
	author := g.users[g.activeIdx[g.rng.Intn(len(g.activeIdx))]]
	cu := g.urls[ytIdx]
	at := cu.FirstSeen.Add(time.Hour)
	c := &platform.Comment{
		ID:        g.idgen.NewAt(at),
		URLID:     cu.ID,
		AuthorID:  author.AuthorID,
		Text:      strings.TrimSpace(strings.Repeat("ha ", 45000)),
		CreatedAt: at,
	}
	g.out.Tones[c.ID] = ToneNeutral
	g.comments = append(g.comments, c)
}

// --- votes ---------------------------------------------------------------

func (g *generator) makeVotes() {
	for i, cu := range g.urls {
		net := g.urlVotes[i]
		cross := 0
		if net != 0 && g.rng.Float64() < 0.3 {
			cross = g.rng.Intn(3)
		}
		if net >= 0 {
			cu.Ups = net + cross
			cu.Downs = cross
		} else {
			cu.Ups = cross
			cu.Downs = -net + cross
		}
	}
}

// --- social graph ----------------------------------------------------------

func (g *generator) makeSocialGraph() {
	cfg := g.cfg
	g.follows = make(map[ids.GabID][]ids.GabID)

	coreSet := make(map[int]bool, len(g.coreIdx))
	for _, i := range g.coreIdx {
		coreSet[i] = true
	}

	// Participants: Dissenter users minus the isolated fraction; core
	// users always participate.
	var participants []int
	for _, i := range g.dissenterIdx {
		if coreSet[i] || !bernoulli(g.rng, cfg.IsolatedFraction) {
			participants = append(participants, i)
		}
	}
	if len(participants) < 2 {
		return
	}

	// In-degree attractiveness is Zipf; out-degree is a bounded Pareto.
	attract := zipfWeights(len(participants), 1.1)
	g.rng.Shuffle(len(attract), func(i, j int) { attract[i], attract[j] = attract[j], attract[i] })
	attractSampler := newCumSampler(attract)

	addEdge := func(from, to int) {
		fu, tu := g.users[from], g.users[to]
		if fu.GabID == tu.GabID {
			return
		}
		for _, existing := range g.follows[fu.GabID] {
			if existing == tu.GabID {
				return
			}
		}
		g.follows[fu.GabID] = append(g.follows[fu.GabID], tu.GabID)
	}

	maxOut := len(participants) / 4
	if maxOut < 4 {
		maxOut = 4
	}
	for _, i := range participants {
		out := boundedPareto(g.rng, 1.7, 1, maxOut)
		for k := 0; k < out; k++ {
			if bernoulli(g.rng, cfg.CrossEdgeRate) {
				// Follow a random non-Dissenter Gab user: the crawler
				// must filter these to build the Dissenter graph.
				j := g.rng.Intn(len(g.users))
				if !g.users[j].HasDissenter {
					addEdge(i, j)
				}
				continue
			}
			tj := participants[attractSampler.sample(g.rng)]
			if tj == i || (coreSet[i] && coreSet[tj]) {
				continue // core-internal edges are constructed below
			}
			addEdge(i, tj)
		}
	}

	// @a (Andrew Torba) is auto-followed by new Gab accounts for part of
	// the platform's history (§3.1) — it is what made the authors' first
	// harvesting method (follower BFS from @a) plausible, and its gaps
	// (pre-auto-follow accounts, unfollowers, the silent majority's
	// missing onward edges) are why that method undercounts. Most
	// non-Dissenter Gab users carry the edge; Dissenter users mostly
	// pruned their follows, keeping the Dissenter-filtered graph's
	// isolated-user fraction at the paper's level.
	if len(g.users) > 2 {
		const aIdx = 1 // g.users[1] is @a
		for i, u := range g.users {
			if i == aIdx {
				continue
			}
			p := 0.70
			if u.HasDissenter {
				p = 0.10
			}
			if bernoulli(g.rng, p) {
				addEdge(i, aIdx)
			}
		}
	}

	// Hateful-core construction: mutual-follow components with the
	// configured sizes (paper: one 32-user component plus five pairs).
	offset := 0
	for _, size := range cfg.HatefulCoreComponents {
		members := g.coreIdx[offset : offset+size]
		offset += size
		// Mutual ring keeps each component connected.
		for k := range members {
			a, b := members[k], members[(k+1)%len(members)]
			if len(members) == 2 && k == 1 {
				break // a pair needs exactly one mutual edge
			}
			addEdge(a, b)
			addEdge(b, a)
		}
		// Random mutual chords densify the big component.
		if len(members) > 4 {
			for k := 0; k < len(members); k++ {
				a := members[g.rng.Intn(len(members))]
				b := members[g.rng.Intn(len(members))]
				if a != b {
					addEdge(a, b)
					addEdge(b, a)
				}
			}
		}
	}
}

// --- youtube ---------------------------------------------------------------

func (g *generator) finishYouTube() {
	// Owner totals: sized so the per-owner normalization of §4.2.2 holds
	// (4.7% of Fox News videos are commented on vs 0.5% of CNN's).
	commented := map[string]int{}
	for _, v := range g.ytVideos {
		if v.Kind == youtube.KindVideo {
			commented[v.Owner]++
		}
	}
	totals := make(map[string]int, len(commented))
	for owner, n := range commented {
		switch owner {
		case "Fox News":
			totals[owner] = int(float64(n)/0.047) + 1
		case "CNN":
			totals[owner] = int(float64(n)/0.005) + 1
		default:
			totals[owner] = n*(2+g.rng.Intn(30)) + 1
		}
	}
	g.out.YouTube = youtube.NewSite(g.ytVideos, totals)
}
