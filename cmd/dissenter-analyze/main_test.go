package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dissenter/internal/repro"
)

var (
	blockTitle   = regexp.MustCompile(`(?m)^== (.*) ==$`)
	scaleProduct = regexp.MustCompile(`x scale = [\d,]+`)
	cellGap      = regexp.MustCompile(` {2,}`)
)

// splitBlocks cuts a report into its blocks, keyed by title: each runs
// from its "== title ==" line to the next one.
func splitBlocks(report string) (titles []string, blocks map[string]string) {
	blocks = map[string]string{}
	locs := blockTitle.FindAllStringSubmatchIndex(report, -1)
	for i, loc := range locs {
		end := len(report)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		title := report[loc[2]:loc[3]]
		titles = append(titles, title)
		blocks[title] = strings.TrimRight(report[loc[0]:end], "\n")
	}
	return titles, blocks
}

// rows is a block's table as cells, without the title and rule lines,
// so two renderings can be compared where column widths differ.
func rows(block string) [][]string {
	var out [][]string
	for _, line := range strings.Split(block, "\n")[1:] {
		if line != "" && strings.Trim(line, "- ") != "" {
			out = append(out, cellGap.Split(line, -1))
		}
	}
	return out
}

// TestCorpusReportMatchesReproGolden is the one-writer proof: the
// (1/512, seed 33) corpus, saved and loaded back through this binary's
// entry point, prints every block dissenter-repro prints from a Study
// alone byte-equal to that block of dissenter-repro's golden report.
// Three blocks print something a saved corpus does not carry, and are
// compared as far as they can agree: S1's "paper x scale" cells use the
// scale the user count implies, not the run's; the shadow overlay has
// no live session to validate a sample with; the NLP classifier is
// trained from seed 1, not the run's.
func TestCorpusReportMatchesReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	res, err := repro.Run(context.Background(), repro.Options{Scale: 1.0 / 512, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.DS.Save(dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-corpus", dir, "-core-min-comments", "30"}, &out); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../internal/repro/testdata/report_512_seed33.golden")
	if err != nil {
		t.Fatal(err)
	}
	goldenTitles, want := splitBlocks(string(golden))
	_, got := splitBlocks(out.String())

	crawlOnly := map[string]bool{
		"Figure 2 — Gab IDs over time": true, "Table 3 — baseline datasets": true,
		"Figure 6 — Dissenter/Reddit comment ratio": true, "Figure 7 takeaways": true,
		"Figure 7 — LIKELY_TO_REJECT by platform": true, "Figure 7 — SEVERE_TOXICITY by platform": true,
		"Figure 7 — ATTACK_ON_AUTHOR by platform": true, "§4.2.2 YouTube": true,
	}
	for _, title := range goldenTitles {
		g, ok := got[title]
		if ok == crawlOnly[title] {
			t.Errorf("block %q: printed=%v, reads a crawl side product=%v", title, ok, crawlOnly[title])
			continue
		}
		if !ok {
			continue
		}
		w := want[title]
		switch title {
		case "S1 headline statistics (§4.1)":
			g, w = scaleProduct.ReplaceAllString(g, "x scale = N"), scaleProduct.ReplaceAllString(w, "x scale = N")
		case "§4.3.1 shadow overlay":
			wr := rows(w)
			if last := wr[len(wr)-1]; last[0] != "validation sample confirmed" {
				t.Fatalf("golden shadow overlay ends with %q", last)
			}
			if !reflect.DeepEqual(rows(g), wr[:len(wr)-1]) {
				t.Errorf("block %q differs beyond the validation row:\n%s\nrepro golden:\n%s", title, g, w)
			}
			continue
		case "§3.5.3 NLP pipeline":
			gr, wr := rows(g), rows(w)
			for i := range wr {
				if len(gr) != len(wr) || !reflect.DeepEqual(gr[i][:2], wr[i][:2]) {
					t.Fatalf("block %q has another shape:\n%s\nrepro golden:\n%s", title, g, w)
				}
			}
			continue
		}
		if g != w {
			t.Errorf("block %q is not byte-equal:\n%s\nrepro golden:\n%s", title, g, w)
		}
	}
	if len(got)+len(crawlOnly) != len(want) {
		t.Errorf("printed %d blocks; the golden has %d, %d of them crawl-only", len(got), len(want), len(crawlOnly))
	}
}
