// Package stats provides the statistical primitives the Dissenter study
// relies on: empirical CDFs, quantiles, histograms, the two-sample
// Kolmogorov–Smirnov test (used in §4.4.4 to confirm that Perspective
// score distributions differ across Allsides bias classes with p < 0.01),
// discrete power-law fitting for the social-graph degree distributions of
// §4.5, and basic descriptive statistics. All functions are pure and
// operate on float64 slices.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the sample median, averaging the two central order
// statistics for even-length input. It does not modify xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th sample quantile of xs for q in [0, 1] using
// linear interpolation between order statistics (type-7, the R default).
// It returns 0 for an empty sample and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the descriptive statistics used for the box-plot style
// presentation of Figure 8a (toxicity by media bias).
type Summary struct {
	N                  int
	Mean, Median       float64
	StdDev             float64
	Min, Max           float64
	P25, P75, P90, P95 float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: quantileSorted(sorted, 0.5),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P25:    quantileSorted(sorted, 0.25),
		P75:    quantileSorted(sorted, 0.75),
		P90:    quantileSorted(sorted, 0.90),
		P95:    quantileSorted(sorted, 0.95),
	}
}

// ECDF is an empirical cumulative distribution function over a fixed
// sample. The zero value is an ECDF of the empty sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs without modifying it.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns F(x) = P[X <= x], the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s finds the first index with sorted[i] >= x; we
	// want the count of values <= x, so search for the first value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// FractionAbove returns P[X >= x]. This is the form the paper quotes, e.g.
// "approximately 20% of Dissenter comments have a SEVERE_TOXICITY score
// >= 0.5".
func (e *ECDF) FractionAbove(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] >= x })
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return quantileSorted(e.sorted, q)
}

// Point is an (x, y) pair in a rendered series.
type Point struct{ X, Y float64 }

// KSResult reports a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	D      float64 // maximum distance between the two ECDFs
	P      float64 // asymptotic p-value (Smirnov/Kolmogorov approximation)
	N1, N2 int
}

// KolmogorovSmirnov runs the two-sample KS test on xs and ys. It returns
// ErrEmpty if either sample is empty.
func KolmogorovSmirnov(xs, ys []float64) (KSResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return KSResult{}, ErrEmpty
	}
	a := make([]float64, len(xs))
	copy(a, xs)
	sort.Float64s(a)
	b := make([]float64, len(ys))
	copy(b, ys)
	sort.Float64s(b)

	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Advance past all observations tied at the current minimum in
		// BOTH samples before comparing the ECDFs, otherwise identical
		// samples would report a spurious 1/n distance.
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	n1, n2 := float64(len(a)), float64(len(b))
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProb(lambda), N1: len(a), N2: len(b)}, nil
}

// ksProb is the Kolmogorov distribution tail Q_KS(lambda) =
// 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2).
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j*j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// PowerLawFit reports a discrete power-law fit p(k) ~ k^-Alpha for k >=
// XMin, via the standard maximum-likelihood estimator of Clauset et al.
// (the continuous approximation with the 1/2 correction, accurate for the
// degree distributions of §4.5).
type PowerLawFit struct {
	Alpha float64
	XMin  float64
	N     int // observations at or above XMin
}

// FitPowerLaw estimates the power-law exponent of the tail of xs at or
// above xmin. Values below xmin (and below 1) are ignored. It returns
// ErrEmpty if no observations qualify.
func FitPowerLaw(xs []float64, xmin float64) (PowerLawFit, error) {
	if xmin < 1 {
		xmin = 1
	}
	var sum float64
	var n int
	for _, x := range xs {
		if x >= xmin {
			sum += math.Log(x / (xmin - 0.5))
			n++
		}
	}
	if n == 0 || sum == 0 {
		return PowerLawFit{}, ErrEmpty
	}
	return PowerLawFit{Alpha: 1 + float64(n)/sum, XMin: xmin, N: n}, nil
}

// LogBin groups positive integer-valued observations (degrees, comment
// counts) into logarithmic bins with the given number of bins per decade,
// returning bin centers and the mean of ys within each bin. It is the
// presentation used for Figures 9b/9c (toxicity vs follower count on a
// log axis). Pairs where xs <= 0 are skipped; empty bins are omitted.
func LogBin(xs, ys []float64, binsPerDecade int) []Point {
	if len(xs) != len(ys) || binsPerDecade < 1 {
		return nil
	}
	type acc struct {
		sum float64
		n   int
	}
	bins := map[int]*acc{}
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		b := int(math.Floor(math.Log10(x) * float64(binsPerDecade)))
		a := bins[b]
		if a == nil {
			a = &acc{}
			bins[b] = a
		}
		a.sum += ys[i]
		a.n++
	}
	keys := make([]int, 0, len(bins))
	for k := range bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pts := make([]Point, 0, len(keys))
	for _, k := range keys {
		center := math.Pow(10, (float64(k)+0.5)/float64(binsPerDecade))
		pts = append(pts, Point{X: center, Y: bins[k].sum / float64(bins[k].n)})
	}
	return pts
}

// GiniTopShare returns the smallest fraction of contributors that accounts
// for at least the `share` fraction of the total, after sorting
// contributions in decreasing order. The paper's Figure 3 takeaway is the
// instance GiniTopShare(comments, 0.90) ≈ 0.14: 90% of comments come from
// about 14% of active users.
func GiniTopShare(contrib []float64, share float64) float64 {
	if len(contrib) == 0 {
		return 0
	}
	sorted := make([]float64, len(contrib))
	copy(sorted, contrib)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var total float64
	for _, c := range sorted {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := share * total
	var running float64
	for i, c := range sorted {
		running += c
		if running >= target {
			return float64(i+1) / float64(len(sorted))
		}
	}
	return 1
}
