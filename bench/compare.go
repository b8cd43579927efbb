package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifestPath is BENCHMARK.json as seen from the benchmark's own
// directory, where run.sh starts the program.
const manifestPath = "../BENCHMARK.json"

func readManifest() (*manifest, error) {
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return &m, nil
}

// quartiles returns the first quartile, median and third quartile of
// v the way Python's statistics.quantiles(v, n=4) does. v needs two
// values; with one, all three are that value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one ledger's values of one metric on one workload.
type side struct {
	median, spread float64
	n              int
}

func summarize(v []float64) side {
	if len(v) == 0 {
		return side{}
	}
	q1, q2, q3 := quartiles(v)
	return side{median: q2, spread: ratio(q3-q1, q2), n: len(v)}
}

func readLedger(path string) (map[string][]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []ledgerEntry
	if err := json.Unmarshal(blob, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	values := map[string][]float64{}
	for _, e := range entries {
		for name, m := range e.Metrics {
			key := e.Workload + "\x00" + name
			values[key] = append(values[key], m.Value)
		}
	}
	return values, nil
}

// judge compares new against old under the metric's bound: unresolved
// when either side's own spread (interquartile range over median) is
// wider than the bound, worse when the median moved the wrong way by
// more than the bound, same otherwise. A per-layer metric has no bound
// and no verdict.
func judge(mm manifestMetric, old, new side) string {
	if mm.Bound == 0 {
		return "-"
	}
	if old.spread > mm.Bound || new.spread > mm.Bound {
		return "unresolved"
	}
	change := ratio(new.median-old.median, old.median)
	if mm.Better == "higher" {
		change = -change
	}
	if change > mm.Bound {
		return "worse"
	}
	return "same"
}

// compareLedgers prints one row per (metric, workload): both medians,
// their ratio with its base, each side's spread, and the verdict.
func compareLedgers(paths []string, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("--compare wants two ledger files, got %d", len(paths))
	}
	man, err := readManifest()
	if err != nil {
		return err
	}
	old, err := readLedger(paths[0])
	if err != nil {
		return err
	}
	new, err := readLedger(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-32s %-14s %14s %14s %9s %8s %8s  %s\n",
		"metric", "workload", "old median", "new median", "new/old", "spread", "bound", "verdict")
	worse := 0
	for _, mm := range append(man.EndToEnd, man.PerLayer...) {
		for _, w := range man.Workloads {
			key := w.Name + "\x00" + mm.Name
			o, n := summarize(old[key]), summarize(new[key])
			if o.n == 0 || n.n == 0 {
				continue
			}
			verdict := judge(mm, o, n)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-32s %-14s %14.4f %14.4f %9.4f %8.4f %8.2f  %s\n",
				mm.Name, w.Name, o.median, n.median, ratio(n.median, o.median), max(o.spread, n.spread), mm.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pairs got worse by more than their bound", worse)
	}
	return nil
}
