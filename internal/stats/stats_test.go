package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "Mean")
	almost(t, Variance(xs), 4, 1e-12, "Variance")
	almost(t, StdDev(xs), 2, 1e-12, "StdDev")
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty sample should yield 0")
	}
}

func TestMedianAndQuantiles(t *testing.T) {
	odd := []float64{5, 1, 3}
	almost(t, Median(odd), 3, 1e-12, "Median odd")
	even := []float64{4, 1, 3, 2}
	almost(t, Median(even), 2.5, 1e-12, "Median even")
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	almost(t, Quantile(xs, 0.25), 2.5, 1e-12, "Q25")
	almost(t, Quantile(xs, 0), 0, 1e-12, "Q0")
	almost(t, Quantile(xs, 1), 10, 1e-12, "Q100")
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Error("singleton quantile should be the value")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := Summarize(xs)
	if s.N != 10 {
		t.Errorf("N = %d", s.N)
	}
	almost(t, s.Min, 1, 0, "Min")
	almost(t, s.Max, 10, 0, "Max")
	almost(t, s.Mean, 5.5, 1e-12, "Mean")
	almost(t, s.Median, 5.5, 1e-12, "Median")
	almost(t, s.P25, 3.25, 1e-12, "P25")
	almost(t, s.P75, 7.75, 1e-12, "P75")
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty Summarize should be zero")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	almost(t, e.At(0), 0, 0, "At(0)")
	almost(t, e.At(1), 0.25, 0, "At(1)")
	almost(t, e.At(2), 0.75, 0, "At(2)")
	almost(t, e.At(2.5), 0.75, 0, "At(2.5)")
	almost(t, e.At(3), 1, 0, "At(3)")
	almost(t, e.FractionAbove(2), 0.75, 0, "FractionAbove(2)")
	almost(t, e.FractionAbove(2.5), 0.25, 0, "FractionAbove(2.5)")
	almost(t, e.FractionAbove(100), 0, 0, "FractionAbove(100)")
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.At(1) != 0 || e.FractionAbove(0) != 0 || e.Quantile(0.5) != 0 {
		t.Error("zero-value ECDF should return 0 everywhere")
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	r, err := KolmogorovSmirnov(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 0 {
		t.Errorf("D = %v for identical samples", r.D)
	}
	if r.P < 0.99 {
		t.Errorf("P = %v for identical samples, want ~1", r.P)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64()      // U(0,1)
		ys[i] = 10 + rng.Float64() // U(10,11): disjoint support
	}
	r, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 1 {
		t.Errorf("D = %v for disjoint samples, want 1", r.D)
	}
	if r.P >= 0.01 {
		t.Errorf("P = %v, want < 0.01", r.P)
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.P < 0.001 {
		t.Errorf("same distribution flagged significant: D=%v P=%v", r.D, r.P)
	}
}

func TestKolmogorovSmirnovShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.5
	}
	r, err := KolmogorovSmirnov(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r.P >= 0.01 {
		t.Errorf("shifted distribution not significant: D=%v P=%v", r.D, r.P)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if _, err := KolmogorovSmirnov(nil, []float64{1}); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// Sample from a discrete power law with alpha = 2.5 via inverse CDF on
	// the continuous approximation, then check the MLE recovers it.
	// The continuous-approximation MLE is accurate for xmin >~ 6 (Clauset
	// et al.), so generate a tail with xmin = 10.
	rng := rand.New(rand.NewSource(4))
	alpha := 2.5
	const xmin = 10.0
	xs := make([]float64, 20000)
	for i := range xs {
		u := rng.Float64()
		xs[i] = math.Floor((xmin-0.5)*math.Pow(1-u, -1/(alpha-1)) + 0.5)
	}
	fit, err := FitPowerLaw(xs, xmin)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, fit.Alpha, alpha, 0.1, "Alpha")
	if fit.N != len(xs) {
		t.Errorf("N = %d, want %d", fit.N, len(xs))
	}
}

func TestFitPowerLawEmpty(t *testing.T) {
	if _, err := FitPowerLaw(nil, 1); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	if _, err := FitPowerLaw([]float64{0.5, 0.2}, 1); err != ErrEmpty {
		t.Errorf("all-below-xmin err = %v, want ErrEmpty", err)
	}
}

func TestLogBin(t *testing.T) {
	xs := []float64{1, 10, 100, 10, 0}
	ys := []float64{1, 2, 3, 4, 99}
	pts := LogBin(xs, ys, 1)
	if len(pts) != 3 {
		t.Fatalf("pts = %v", pts)
	}
	// Bin of x=10 holds ys {2, 4} -> mean 3.
	almost(t, pts[1].Y, 3, 1e-12, "decade-10 mean")
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
		t.Error("bins not sorted by X")
	}
	if LogBin(xs, ys[:2], 1) != nil {
		t.Error("length mismatch should return nil")
	}
}

func TestGiniTopShare(t *testing.T) {
	// One user posts 90 comments, nine users post 1 comment each, and 90
	// lurkers post none: 90% of the volume comes from ~1% of users.
	contrib := make([]float64, 100)
	contrib[0] = 90
	for i := 1; i < 10; i++ {
		contrib[i] = 1
	}
	almost(t, GiniTopShare(contrib, 0.90), 0.01, 1e-9, "top share")
	almost(t, GiniTopShare(contrib, 1.0), 0.10, 1e-9, "full share")
	if GiniTopShare(nil, 0.9) != 0 {
		t.Error("empty input should give 0")
	}
	if GiniTopShare(make([]float64, 5), 0.9) != 0 {
		t.Error("all-zero input should give 0")
	}
}

func TestQuickECDFBounds(t *testing.T) {
	// Property: ECDF values are always within [0, 1] and monotone in x.
	f := func(raw []float64, probe float64) bool {
		e := NewECDF(raw)
		v := e.At(probe)
		if v < 0 || v > 1 {
			return false
		}
		return e.At(probe) <= e.At(probe+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return Quantile(raw, q) == 0
		}
		q = math.Abs(math.Mod(q, 1))
		v := Quantile(raw, q)
		lo, hi := raw[0], raw[0]
		for _, x := range raw {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		// NaNs in input make the comparison meaningless; skip them.
		for _, x := range raw {
			if math.IsNaN(x) {
				return true
			}
		}
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKSSymmetry(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		for _, x := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(x) {
				return true
			}
		}
		r1, err1 := KolmogorovSmirnov(a, b)
		r2, err2 := KolmogorovSmirnov(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(r1.D-r2.D) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	e := NewECDF(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(0.5)
	}
}

func BenchmarkKolmogorovSmirnov(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KolmogorovSmirnov(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
