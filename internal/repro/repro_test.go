package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The (1/512, seed 33) reproduction, run once for every test here with
// the options cmd/dissenter-repro passes for
// `-scale 0.001953125 -seed 33`.
var (
	runOnce   sync.Once
	runRes    *Result
	runReport []byte
	runErr    error
)

func run512(t *testing.T) (*Result, []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	runOnce.Do(func() {
		runRes, runErr = Run(context.Background(), Options{Scale: 1.0 / 512, Seed: 33})
		if runErr == nil {
			var b bytes.Buffer
			runRes.WriteReport(&b)
			runReport = b.Bytes()
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return runRes, runReport
}

func TestRunAndReport(t *testing.T) {
	res, report := run512(t)
	if len(res.DS.Comments) == 0 || len(res.Accounts) == 0 {
		t.Fatal("empty result")
	}
	out := string(report)
	for _, want := range []string{
		"S1 headline statistics",
		"Table 1", "Table 2", "Table 3",
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "§4.5 social network", "§4.2.2 YouTube",
		"§4.2.3 languages", "§4.3.1 shadow overlay", "§3.5.3 NLP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing block %q", want)
		}
	}
	// No qualitative claim may fail at this scale.
	if n := strings.Count(out, "  NO\n"); n > 0 {
		t.Errorf("%d claims failed to hold:\n%s", n, grepLines(out, "  NO"))
	}
}

func grepLines(s, needle string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// crawlWallTime matches the one part of the report that is not a
// function of (scale, seed): the campaign's wall time on line 2.
var crawlWallTime = regexp.MustCompile(`(?m)^(crawl: .* in ).*$`)

// TestReportGolden pins every table and figure dissenter-repro prints,
// byte for byte: the file is the stdout of
// `dissenter-repro -scale 0.001953125 -seed 33` with the crawl's wall
// time replaced by "<duration>". The data is known (synth is seeded),
// so the whole report can be compared, not sampled. Regenerate with
// -update only for a change that is meant to move a published number.
func TestReportGolden(t *testing.T) {
	_, report := run512(t)
	got := crawlWallTime.ReplaceAll(report, []byte("${1}<duration>"))
	checkGolden(t, "report_512_seed33.golden", got)
}

// TestCorpusGolden pins the mirror the campaign saves for the same run:
// the SHA-256 of each JSONL file, in sha256sum's output format. The
// hashes were recorded over each file's sorted lines while the crawl
// still saved in worker-completion order; the saved order is now that
// sorted order, so `sha256sum DIR/*.jsonl` checks them.
func TestCorpusGolden(t *testing.T) {
	res, _ := run512(t)
	dir := t.TempDir()
	if err := res.DS.Save(dir); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range []string{"users.jsonl", "urls.jsonl", "comments.jsonl", "graph.jsonl"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(raw), name)
	}
	checkGolden(t, "corpus_512_seed33.sha256", got.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run:\n%s", path, lineDiff(string(want), string(got)))
	}
}

// lineDiff lists the lines that differ, golden first.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n  golden: %s\n  got:    %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
