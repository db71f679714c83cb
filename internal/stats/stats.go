// Package stats provides the statistical machinery FEX needs for sound
// performance evaluation: summary statistics, confidence intervals,
// percentiles, Welch's t-test, and a Kalibera–Jones-style estimate of the
// number of repetitions needed for a target confidence-interval width.
//
// The paper lists statistical analysis as future work ("We plan to integrate
// statistical numpy/scipy Python packages ... to allow for advanced
// statistical methods and hypothesis testing"); this package implements that
// functionality natively.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports that a computation was attempted on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Variance returns the unbiased (n-1) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// CoV returns the coefficient of variation (stddev / mean).
func CoV(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: CoV undefined for zero mean")
	}
	s, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return s / m, nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile of xs (0 <= p <= 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary bundles the descriptive statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, _ := Mean(xs)
	sd, _ := StdDev(xs)
	mn, _ := Min(xs)
	md, _ := Median(xs)
	mx, _ := Max(xs)
	return Summary{N: len(xs), Mean: mean, StdDev: sd, Min: mn, Median: md, Max: mx}, nil
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Level is the confidence level, e.g. 0.95.
	Level float64 `json:"level"`
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether the two intervals share at least one point.
// The boundary is inclusive: intervals that exactly touch ([1,2] and
// [2,3]) DO overlap — the shared endpoint is a value both intervals deem
// plausible, so an overlap-based significance rule must treat touching
// intervals as compatible with equality ("not significant"). Degenerate
// zero-width intervals (Lo == Hi, the zero-variance case) follow the same
// rule: [5,5] overlaps [5,5] but not [7,7].
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Disjoint reports whether the intervals share no point — the
// "separated confidence intervals" significance rule. It is the exact
// negation of Overlaps, so exactly-touching intervals are NOT disjoint
// and therefore never count as significant under the CI rule.
func (iv Interval) Disjoint(other Interval) bool { return !iv.Overlaps(other) }

// ConfidenceInterval returns the Student-t confidence interval for the mean
// of xs at the given level (e.g. 0.95). The sample must contain at least two
// observations.
func ConfidenceInterval(xs []float64, level float64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, fmt.Errorf("stats: confidence interval needs >=2 samples, got %d", len(xs))
	}
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v out of range (0,1)", level)
	}
	mean, _ := Mean(xs)
	sd, _ := StdDev(xs)
	se := sd / math.Sqrt(float64(len(xs)))
	t := tQuantile(1-(1-level)/2, float64(len(xs)-1))
	return Interval{Lo: mean - t*se, Hi: mean + t*se, Level: level}, nil
}

// TTestResult describes the outcome of Welch's two-sample t-test.
type TTestResult struct {
	// T is the test statistic.
	T float64 `json:"t"`
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64 `json:"df"`
	// P is the two-sided p-value.
	P float64 `json:"p"`
	// MeanDiff is mean(a) - mean(b).
	MeanDiff float64 `json:"mean_diff"`
}

// Significant reports whether the difference is significant at level alpha.
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

// WelchTTest performs Welch's two-sample t-test on a and b (two-sided).
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, fmt.Errorf("stats: t-test needs >=2 samples per group, got %d and %d", len(a), len(b))
	}
	ma, _ := Mean(a)
	mb, _ := Mean(b)
	va, _ := Variance(a)
	vb, _ := Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	denom := math.Sqrt(sa + sb)
	if denom == 0 {
		// Identical constant samples: no evidence of difference, or exact
		// difference with zero variance.
		if ma == mb {
			return TTestResult{T: 0, DF: na + nb - 2, P: 1, MeanDiff: 0}, nil
		}
		return TTestResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0, MeanDiff: ma - mb}, nil
	}
	t := (ma - mb) / denom
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	p := 2 * (1 - tCDF(math.Abs(t), df))
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p, MeanDiff: ma - mb}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// RequiredRepetitions estimates (in the spirit of Kalibera & Jones,
// "Rigorous benchmarking in reasonable time") how many repetitions are
// needed so the half-width of the level-confidence interval is at most
// relWidth × mean, given a pilot sample.
func RequiredRepetitions(pilot []float64, level, relWidth float64) (int, error) {
	if len(pilot) < 2 {
		return 0, fmt.Errorf("stats: pilot sample needs >=2 observations, got %d", len(pilot))
	}
	if relWidth <= 0 {
		return 0, fmt.Errorf("stats: relative width must be positive, got %v", relWidth)
	}
	mean, _ := Mean(pilot)
	if mean == 0 {
		return 0, errors.New("stats: pilot mean is zero")
	}
	sd, _ := StdDev(pilot)
	if sd == 0 {
		return 2, nil
	}
	target := math.Abs(relWidth * mean)
	half := func(n int) float64 {
		t := tQuantile(1-(1-level)/2, float64(n-1))
		return t * sd / math.Sqrt(float64(n))
	}
	// The half-width is monotone decreasing in n (the t quantile shrinks
	// with the degrees of freedom, 1/sqrt(n) shrinks with n), so the
	// smallest satisfying n is found by binary search: a linear scan to
	// 1e6 t-quantile evaluations is far too slow for a caller that sizes
	// many sweeps.
	const maxN = 1_000_000
	if half(maxN) > target {
		return 0, errors.New("stats: required repetitions exceed 1e6; sample too noisy")
	}
	lo, hi := 2, maxN
	for lo < hi {
		mid := lo + (hi-lo)/2
		if half(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// Normalize divides each element of xs by base and returns the ratios —
// the transformation behind "normalized runtime w.r.t. native GCC" plots.
func Normalize(xs []float64, base float64) ([]float64, error) {
	if base == 0 {
		return nil, errors.New("stats: cannot normalize by zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out, nil
}

// --- Student-t distribution helpers -----------------------------------------

// tCDF returns P(T <= t) for Student's t distribution with df degrees of
// freedom, via the regularized incomplete beta function.
func tCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	ib := regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// tQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom (p in (0,1)), via bisection on tCDF.
func tQuantile(p, df float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x > (a+1)/(a+b+2) {
		// Use symmetry for better convergence.
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Lentz's algorithm for the continued fraction.
	const eps = 1e-14
	const tiny = 1e-30
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -((a + float64(m)) * (a + b + float64(m)) * x) / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
