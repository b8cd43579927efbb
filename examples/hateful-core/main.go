// Hateful core: reproduce the §4.5.1 extraction — induce the mutual-
// follower subgraph over users with enough comments and high median
// toxicity, and report its connected components. Also demonstrates the
// broader social-network toolkit (degree power laws, PageRank,
// isolated-user counting).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"dissenter/internal/repro"
)

func main() {
	res, err := repro.Run(context.Background(), repro.Options{Scale: 1.0 / 512, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Study

	// Network overview (§4.5.1).
	ss := s.SocialStats()
	fmt.Printf("Dissenter social graph: %d nodes, %d directed edges\n", ss.Nodes, ss.Edges)
	fmt.Printf("  isolated users (no followers, following no one): %d (paper: 15,702)\n", ss.Isolated)
	fmt.Printf("  degree power laws: alpha_in=%.2f alpha_out=%.2f\n", ss.InFit.Alpha, ss.OutFit.Alpha)
	fmt.Printf("  top follower counts: %v (paper: 10,705 / 9,588 / 8,183)\n", ss.TopInDegrees)
	fmt.Printf("  overlap of top-degree and top-commenter sets: %d (paper: none)\n\n",
		ss.TopDegreeProlificOverlap)

	// PageRank for orientation: who matters structurally?
	g := s.Graph()
	ranks := g.PageRank(0.85, 50, 1e-9)
	type ranked struct {
		name string
		r    float64
	}
	var top []ranked
	for name, r := range ranks {
		top = append(top, ranked{name, r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("top-5 PageRank users:")
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  %d. %s (%.5f)\n", i+1, top[i].name, top[i].r)
	}

	// The hateful core (§4.5.1): mutual follows + >=N comments + median
	// toxicity >= 0.3.
	params := res.Core
	core := s.HatefulCore(params)
	fmt.Printf("\nhateful core (>=%d comments, median toxicity >= %.1f):\n",
		params.MinComments, params.MedianToxicity)
	fmt.Printf("  %d users in %d components (paper: 42 users, 6 components, largest 32)\n",
		core.TotalUsers, len(core.Components))
	tox := s.UserMedianToxicity()
	counts := s.UserCommentCounts()
	for i, comp := range core.Components {
		fmt.Printf("  component %d (%d members):\n", i+1, len(comp))
		for _, name := range comp {
			fmt.Printf("    %-24s comments=%-4d median_toxicity=%.2f\n",
				name, counts[name], tox[name])
		}
	}
}
