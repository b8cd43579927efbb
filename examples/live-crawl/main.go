// Live crawl: what cmd/dissenter-platform and cmd/dissenter-crawl do,
// in one process over real TCP so you can read the whole flow top to
// bottom — the deployment's one mux (internal/deployment) behind the
// primary's Root on one port, and the measurement campaign crawling it.
// Also demonstrates the politeness machinery: the Gab API runs WITH a
// rate limit here, and the crawler paces itself off the X-RateLimit
// headers.
//
// This example also reproduces the paper's moving-target condition
// (§3.2): a background poster writes comments through the live
// POST /discussion/comment write path while the campaign crawls, and
// the crawl stabilizes with revisit rounds until the mirror reaches a
// fixpoint — the platform grows under the measurement, exactly as the
// real one did.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"dissenter/internal/deployment"
	"dissenter/internal/dissentercrawl"
	"dissenter/internal/gabapi"
	"dissenter/internal/gabcrawl"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
	"dissenter/internal/synth"
)

func main() {
	// 1. Generate a small deployment.
	out := synth.Generate(synth.NewConfig(1.0/1024, 3))
	census := out.DB.Census()
	fmt.Printf("platform: %d Gab users (%d on Dissenter), %d comments\n",
		census.GabUsers, census.DissenterUsers, census.Comments)

	// 2. Serve the whole deployment — dissenter-platform's mux, with the
	// Gab API rate-limited — behind the primary's Root on one port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	mux := deployment.Mux(out.YouTube, out.DB, 3,
		[]gabapi.Option{gabapi.WithRateLimit(5000, 2*time.Second)}, nil)
	// Serve returns before its context ends only on a serve error.
	go func() { log.Fatal(replica.PrimaryRoot(out.DB, nil, mux).Serve(context.Background(), ln)) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving the deployment on %s\n", base)

	// 3. Start the background poster: live comments through
	// POST /discussion/comment while the crawl is underway, including a
	// thread minted mid-crawl on a never-before-seen URL.
	var targets []string
	out.DB.RangeURLs(func(cu *platform.CommentURL) bool {
		targets = append(targets, cu.URL)
		return len(targets) < 5
	})
	poster := &dissentercrawl.Poster{
		Web:         dissentercrawl.New(base, nil, dissentercrawl.WithSession("writer")),
		URLs:        targets,
		FreshURLs:   []string{"https://live.example/breaking/mid-crawl-story"},
		N:           40,
		Interval:    2 * time.Millisecond,
		HiddenEvery: 8,
	}
	posterErr := make(chan error, 1)
	go func() { posterErr <- poster.Run(context.Background()) }()

	// 4. Run the measurement campaign across the wire while the poster
	// writes, then — once the poster is done — stabilize: revisit rounds
	// continue until the mirror reaches a fixpoint. Waiting for the
	// poster first makes the fixpoint meaningful; stabilizing under an
	// active writer can only ever converge by luck.
	campaign := &dissentercrawl.Campaign{
		Gab:          gabcrawl.New(base, nil),
		MaxGabID:     out.DB.MaxGabID(),
		Web:          dissentercrawl.New(base, nil),
		NSFWWeb:      dissentercrawl.New(base, nil, dissentercrawl.WithSession("nsfw-probe")),
		OffensiveWeb: dissentercrawl.New(base, nil, dissentercrawl.WithSession("off-probe")),
		Workers:      8,
	}
	start := time.Now()
	ds, err := campaign.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := <-posterErr; err != nil {
		log.Fatal(err)
	}
	stable, err := campaign.Stabilize(context.Background(), ds, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl finished in %s (stable=%v, %d live comments posted mid-crawl)\n",
		time.Since(start).Round(time.Millisecond), stable, len(poster.Posted()))

	// 5. Compare the mirror against ground truth — recounted, because
	// the poster grew the platform while the campaign measured it.
	final := out.DB.Census()
	fmt.Printf("mirror:   %d users / %d truth\n", len(ds.Users), final.DissenterUsers)
	fmt.Printf("          %d comments / %d truth (%d posted live)\n",
		len(ds.Comments), final.Comments, final.Comments-census.Comments)
	nsfw, off := 0, 0
	for _, c := range ds.Comments {
		if c.NSFW {
			nsfw++
		}
		if c.Offensive {
			off++
		}
	}
	fmt.Printf("          %d NSFW / %d truth, %d offensive / %d truth (inferred differentially)\n",
		nsfw, final.NSFWComments, off, final.OffensiveComments)
}
