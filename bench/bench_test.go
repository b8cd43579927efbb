package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"dissenter/internal/synth"
)

// smallSize is a corpus and op lists small enough for the whole suite
// to run in a few seconds: about 2.3k URLs and 7k comments.
var smallSize = sizing{scale: 0.004, ops: 4000, warm: 20}

// fitted returns the workloads with their populations cut to what the
// small corpus holds.
func fitted(t *testing.T, facts corpusFacts) []workload {
	t.Helper()
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		ws[i].URLs = min(ws[i].URLs, len(facts.byURL)/4)
		ws[i].Users = min(ws[i].Users, len(facts.authors))
	}
	return ws
}

func smallFacts() corpusFacts {
	return surveyCorpus(synth.Generate(synth.NewConfig(smallSize.scale, corpusSeed)).DB)
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	facts := smallFacts()
	for _, w := range fitted(t, facts) {
		a, err := makePlan(&w, facts, smallSize, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePlan(&w, facts, smallSize, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed drew two different plans", w.Name)
		}
		c, _ := makePlan(&w, facts, smallSize, 8, 2)
		// The one-URL cycle has nothing to draw but its comment texts.
		if reflect.DeepEqual(a.ops, c.ops) && reflect.DeepEqual(a.texts, c.texts) {
			t.Errorf("%s: seeds 7 and 8 drew the same plan", w.Name)
		}
		if len(a.ops) != 2 || len(a.ops[0]) == 0 || len(a.warm[0]) != smallSize.warm {
			t.Errorf("%s: %d clients, %d ops, %d warm-up ops", w.Name, len(a.ops), len(a.ops[0]), len(a.warm[0]))
		}
	}
}

// manifestNames returns the metric names BENCHMARK.json declares.
func manifestNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range man.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range man.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func reported(rep report) []string {
	var names []string
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEveryWorkloadRunsClean is the benchmark in miniature: each
// workload untraced and traced against a real small fleet, every
// response and after-run check passing, and exactly the metrics
// BENCHMARK.json declares coming out.
func TestEveryWorkloadRunsClean(t *testing.T) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(outDir, "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	endToEnd, perLayer := manifestNames(t)
	for _, w := range fitted(t, smallFacts()) {
		for _, traced := range []bool{false, true} {
			r := &runner{w: &w, size: smallSize, seed: 1, window: 300 * time.Millisecond, dir: dir}
			run, want := r.untraced, endToEnd
			if traced {
				run, want = r.traced, perLayer
			}
			rep, err := run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if got := reported(rep); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports\n%v\nBENCHMARK.json declares\n%v", w.Name, traced, got, want)
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", w.Name, name, m.Value)
					}
				}
			}
		}
		if _, err := os.Stat(outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.01, 10}, {1, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

// TestSelfTimeIsSpanMinusChild builds one proxied read and one direct
// read by hand and checks the ledger's arithmetic on them.
func TestSelfTimeIsSpanMinusChild(t *testing.T) {
	proxied := requestID(0, 0, false)
	direct := requestID(1, 0, false)
	spans := []span{
		{proxied, spanWeb, 40, 50},
		{proxied, spanClient, 0, 100},
		{proxied, spanGateway, 12, 88},
		{proxied, spanFrontGate, 10, 90},
		{proxied, spanUpstream, 20, 80},
		// A retried upstream hop: two spans of one kind add up.
		{proxied, spanUpstream, 81, 85},
		{direct, spanClient, 0, 60},
		{direct, spanBackGate, 20, 50},
		{direct, spanWeb, 21, 45},
	}
	traces := foldSpans(spans)
	if len(traces) != 2 {
		t.Fatalf("%d traces, want 2", len(traces))
	}
	want := map[uint64][numSpanKinds]int64{
		// client 100-80, gate 80-76, gateway 76-64, upstream 64-10, web 10.
		proxied: {20, 4, 12, 54, 0, 10},
		// client 60-30, back gate 30-24, web 24.
		direct: {30, 0, 0, 0, 6, 24},
	}
	for _, tr := range traces {
		var got [numSpanKinds]int64
		var sum int64
		for k := spanKind(0); k < numSpanKinds; k++ {
			if tr.dur[k] > 0 {
				got[k] = tr.self(k)
				sum += got[k]
			}
		}
		if got != want[tr.id] {
			t.Errorf("request %d: self times %v, want %v", tr.id, got, want[tr.id])
		}
		if sum != tr.dur[spanClient] {
			t.Errorf("request %d: self times add to %d, the request took %d", tr.id, sum, tr.dur[spanClient])
		}
	}
	l := account(traces, false)
	if l.n != 2 || l.totalP50 != 60 || l.totalP99 != 100 {
		t.Errorf("ledger over %d requests: p50 %d, p99 %d", l.n, l.totalP50, l.totalP99)
	}
	if account(traces, true).n != 0 {
		t.Error("reads counted as writes")
	}
}

func TestDurableLag(t *testing.T) {
	samples := []cursorSample{
		{t: 0, head: 0, durable: 0},
		{t: 10, head: 5, durable: 0},
		{t: 20, head: 5, durable: 3},
		{t: 30, head: 9, durable: 5},
		{t: 40, head: 9, durable: 9},
	}
	if got, want := durableLags(samples), []int64{20, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("durable lags %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	lower := manifestMetric{Name: "op_p50_us", Better: "lower", Bound: 0.1}
	higher := manifestMetric{Name: "throughput_rps", Better: "higher", Bound: 0.1}
	steady := func(v float64) side { return side{median: v, spread: 0.02, n: 10} }
	for _, c := range []struct {
		mm       manifestMetric
		old, new side
		want     string
	}{
		{lower, steady(100), steady(105), "same"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(50), "same"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(120), "same"},
		{lower, steady(100), side{median: 115, spread: 0.3, n: 10}, "unresolved"},
		{manifestMetric{Name: "respcache.hit_ns"}, steady(100), steady(300), "-"},
	} {
		if got := judge(c.mm, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.mm.Name, c.old.median, c.new.median, got, c.want)
		}
	}
}

func TestWorkloadsManifestMatchesBenchmarkJSON(t *testing.T) {
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(man.Workloads) {
		t.Fatalf("workloads.json has %d workloads, BENCHMARK.json %d", len(ws), len(man.Workloads))
	}
	for i, w := range ws {
		if w.Name != man.Workloads[i].Name || w.Note == "" {
			t.Errorf("workload %d: %q (note %q) vs BENCHMARK.json %q", i, w.Name, w.Note, man.Workloads[i].Name)
		}
	}
}
