// Command dissenter-analyze loads a crawled corpus (JSONL, as written by
// dissenter-crawl or dissenter-repro -out) and prints the §4 analyses
// that need no external service, in dissenter-repro's paper-vs-measured
// comparison format and through the same code (repro.WriteCorpusReport):
// headline statistics, Tables 1–2, URL forensics, Figures 3–5 and 8, the
// social network and hateful core, languages, the shadow overlay, and
// the §6 and NLP blocks. The blocks that read a side product of the live
// crawl (Figure 2, Table 3, Figures 6–7, YouTube, the shadow validation
// sample) are dissenter-repro's alone.
//
// Usage:
//
//	dissenter-analyze -corpus ./corpus [-core-min-comments 100]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dissenter/internal/analysis"
	"dissenter/internal/corpus"
	"dissenter/internal/graph"
	"dissenter/internal/repro"
	"dissenter/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dissenter-analyze", flag.ContinueOnError)
	dir := fs.String("corpus", "corpus", "corpus directory (JSONL)")
	coreMin := fs.Int("core-min-comments", 100, "hateful-core minimum comment count (paper: 100)")
	coreTox := fs.Float64("core-toxicity", 0.3, "hateful-core median toxicity threshold (paper: 0.3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := corpus.Load(*dir)
	if err != nil {
		return fmt.Errorf("load corpus: %w", err)
	}
	if len(ds.Users) == 0 || len(ds.URLs) == 0 {
		return fmt.Errorf("corpus %s holds no users or no URLs", *dir)
	}
	// A saved corpus does not record the run that produced it: the
	// "paper x scale" column and the expected hateful-core construction
	// follow from the scale its user count implies, and the seeded
	// blocks (defense, NLP) run with the binaries' default seed, 1.
	res := &repro.Result{
		Cfg:   synth.NewConfig(float64(len(ds.Users))/synth.PaperDissenterUsers, 1),
		DS:    ds,
		Study: analysis.NewStudy(ds),
		Core:  graph.HatefulCoreParams{MinComments: *coreMin, MedianToxicity: *coreTox},
	}
	fmt.Fprintf(w, "Dissenter corpus analysis — %d users, %d URLs, %d comments (scale %.5f by user count)\n",
		len(ds.Users), len(ds.URLs), len(ds.Comments), res.Cfg.Scale)
	res.WriteCorpusReport(w)
	return nil
}
