package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndDegrees(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "a")
	g.AddEdge("a", "a") // self-loop ignored
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree("a") != 2 || g.InDegree("a") != 1 {
		t.Errorf("a degrees: out=%d in=%d", g.OutDegree("a"), g.InDegree("a"))
	}
	if !g.out["a"]["b"] || g.out["b"]["c"] {
		t.Error("edge set wrong")
	}
	if !g.Mutual("a", "b") || g.Mutual("a", "c") {
		t.Error("Mutual wrong")
	}
}

func TestIsolated(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddNode("loner1")
	g.AddNode("loner2")
	if g.Isolated() != 2 {
		t.Errorf("Isolated = %d, want 2", g.Isolated())
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency(map[string][]string{"a": {"b", "c"}, "b": {"a"}})
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestDegreeSeries(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("c", "b")
	in, out := g.DegreeSeries()
	if len(in) != 3 || len(out) != 3 {
		t.Fatal("series length wrong")
	}
	// Nodes sorted: a, b, c.
	if in[1] != 2 || out[1] != 0 {
		t.Errorf("b degrees in series: in=%v out=%v", in[1], out[1])
	}
}

func TestTopBy(t *testing.T) {
	g := New()
	g.AddEdge("a", "hub")
	g.AddEdge("b", "hub")
	g.AddEdge("c", "hub")
	g.AddEdge("a", "mid")
	g.AddEdge("b", "mid")
	top := g.TopBy(2, g.InDegree)
	if len(top) != 2 || top[0] != "hub" || top[1] != "mid" {
		t.Errorf("TopBy = %v", top)
	}
	if got := g.TopBy(100, g.InDegree); len(got) != g.NumNodes() {
		t.Error("TopBy should clamp k")
	}
}

func TestPageRankProperties(t *testing.T) {
	g := New()
	// hub receives links from everyone; spoke nodes link only to hub.
	for i := 0; i < 10; i++ {
		g.AddEdge(fmt.Sprintf("n%d", i), "hub")
	}
	ranks := g.PageRank(0.85, 100, 1e-10)
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v", sum)
	}
	for n, r := range ranks {
		if n != "hub" && r >= ranks["hub"] {
			t.Errorf("hub should dominate: %s=%v hub=%v", n, r, ranks["hub"])
		}
	}
	if New().PageRank(0.85, 10, 1e-9) != nil {
		t.Error("empty graph PageRank should be nil")
	}
}

func TestMutualSubgraph(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "a") // mutual
	g.AddEdge("a", "c") // one-way
	g.AddEdge("d", "a")
	sub := g.MutualSubgraph(nil)
	if !sub.out["a"]["b"] || !sub.out["b"]["a"] {
		t.Error("mutual pair missing")
	}
	if sub.out["a"]["c"] || sub.out["d"]["a"] {
		t.Error("one-way edge leaked into mutual subgraph")
	}
	// keep filter.
	sub = g.MutualSubgraph(map[string]bool{"a": true})
	if sub.out["a"]["b"] {
		t.Error("keep filter ignored")
	}
}

func TestComponents(t *testing.T) {
	g := New()
	// Component 1: a-b-c chain. Component 2: x-y. Isolated: z.
	g.AddEdge("a", "b")
	g.AddEdge("c", "b")
	g.AddEdge("x", "y")
	g.AddNode("z")
	comps := g.Components(true)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (isolated skipped)", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes: %d, %d", len(comps[0]), len(comps[1]))
	}
	all := g.Components(false)
	if len(all) != 3 {
		t.Errorf("with isolated: %d components", len(all))
	}
}

func TestHatefulCoreExtraction(t *testing.T) {
	g := New()
	// Construct: a 3-clique of toxic heavy users, one toxic pair, one
	// heavy-but-mild pair, one toxic-but-light pair, background noise.
	mutual := func(a, b string) { g.AddEdge(a, b); g.AddEdge(b, a) }
	mutual("t1", "t2")
	mutual("t2", "t3")
	mutual("t1", "t3")
	mutual("p1", "p2")
	mutual("mild1", "mild2")
	mutual("light1", "light2")
	g.AddEdge("t1", "outsider") // one-way edge must not pull outsider in

	comments := map[string]int{
		"t1": 150, "t2": 200, "t3": 120, "p1": 110, "p2": 300,
		"mild1": 500, "mild2": 400, "light1": 20, "light2": 30, "outsider": 999,
	}
	tox := map[string]float64{
		"t1": 0.6, "t2": 0.5, "t3": 0.4, "p1": 0.35, "p2": 0.9,
		"mild1": 0.05, "mild2": 0.1, "light1": 0.8, "light2": 0.9, "outsider": 0.9,
	}
	comps := g.HatefulCore(HatefulCoreParams{MinComments: 100, MedianToxicity: 0.3},
		func(n string) int { return comments[n] },
		func(n string) float64 { return tox[n] })
	if len(comps) != 2 {
		t.Fatalf("core components = %d, want 2: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes: %v", comps)
	}
	for _, comp := range comps {
		for _, m := range comp {
			if m == "mild1" || m == "mild2" || m == "light1" || m == "light2" || m == "outsider" {
				t.Errorf("unqualified user %q in core", m)
			}
		}
	}
}

func TestFitDegreeDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	// Preferential-attachment-ish: node i links to biased-random earlier
	// nodes, yielding a heavy-tailed in-degree distribution.
	for i := 1; i < 3000; i++ {
		target := int(math.Floor(math.Pow(rng.Float64(), 2) * float64(i)))
		g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", target))
	}
	inFit, outFit, err := g.FitDegreeDistributions(1)
	if err != nil {
		t.Fatal(err)
	}
	if inFit.Alpha < 1.2 || inFit.Alpha > 5 {
		t.Errorf("in-degree alpha = %.2f, not power-law-ish", inFit.Alpha)
	}
	if outFit.N == 0 {
		t.Error("out-degree fit empty")
	}
}

func TestQuickMutualSymmetric(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := New()
		for _, e := range edges {
			g.AddEdge(fmt.Sprintf("n%d", e[0]%16), fmt.Sprintf("n%d", e[1]%16))
		}
		sub := g.MutualSubgraph(nil)
		for _, a := range sub.Nodes() {
			for _, b := range sub.Nodes() {
				if sub.out[a][b] != sub.out[b][a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComponentsPartition(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := New()
		for _, e := range edges {
			g.AddEdge(fmt.Sprintf("n%d", e[0]%12), fmt.Sprintf("n%d", e[1]%12))
		}
		comps := g.Components(false)
		seen := map[string]bool{}
		total := 0
		for _, comp := range comps {
			for _, n := range comp {
				if seen[n] {
					return false // node in two components
				}
				seen[n] = true
				total++
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPageRank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < 5000; i++ {
		g.AddEdge(fmt.Sprintf("n%d", rng.Intn(1000)), fmt.Sprintf("n%d", rng.Intn(1000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PageRank(0.85, 30, 1e-8)
	}
}

func BenchmarkComponents(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := New()
	for i := 0; i < 20000; i++ {
		g.AddEdge(fmt.Sprintf("n%d", rng.Intn(5000)), fmt.Sprintf("n%d", rng.Intn(5000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components(true)
	}
}
