package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 {
		t.Errorf("mean = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("got %v, want ErrEmpty", err)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-12) {
		t.Errorf("geomean = %v, want 2", got)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("expected error for zero value")
	}
	if _, err := GeoMean([]float64{-1}); err == nil {
		t.Error("expected error for negative value")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sample variance with n-1 denominator: 32/7.
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", v)
	}
	sd, _ := StdDev(xs)
	if !almostEqual(sd, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("stddev = %v", sd)
	}
}

func TestVarianceSingle(t *testing.T) {
	v, err := Variance([]float64{42})
	if err != nil || v != 0 {
		t.Errorf("variance single = %v, %v", v, err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != 1 || mx != 5 {
		t.Errorf("min=%v max=%v", mn, mx)
	}
}

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Errorf("median = %v", m)
	}
}

func TestMedianEven(t *testing.T) {
	m, _ := Median([]float64{1, 2, 3, 4})
	if m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	p, err := Percentile(xs, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 17.5, 1e-12) {
		t.Errorf("p25 = %v, want 17.5", p)
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{1, 2, 3}
	if p, _ := Percentile(xs, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p, _ := Percentile(xs, 100); p != 3 {
		t.Errorf("p100 = %v", p)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected error for p > 100")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("summary %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestConfidenceIntervalContainsMean(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5, 9.5, 10.2}
	iv, err := ConfidenceInterval(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := Mean(xs)
	if !iv.Contains(mean) {
		t.Errorf("interval [%v, %v] excludes mean %v", iv.Lo, iv.Hi, mean)
	}
}

func TestConfidenceIntervalWidthShrinks(t *testing.T) {
	small := []float64{9, 10, 11, 10}
	big := make([]float64, 0, 40)
	for i := 0; i < 10; i++ {
		big = append(big, small...)
	}
	ivSmall, err := ConfidenceInterval(small, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ivBig, err := ConfidenceInterval(big, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ivBig.Width() >= ivSmall.Width() {
		t.Errorf("more samples did not shrink CI: %v vs %v", ivBig.Width(), ivSmall.Width())
	}
}

func TestConfidenceIntervalErrors(t *testing.T) {
	if _, err := ConfidenceInterval([]float64{1}, 0.95); err == nil {
		t.Error("expected error for single sample")
	}
	if _, err := ConfidenceInterval([]float64{1, 2}, 1.5); err == nil {
		t.Error("expected error for bad level")
	}
}

func TestWelchTTestDetectsDifference(t *testing.T) {
	a := []float64{10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.2, 10.0}
	b := []float64{12.1, 12.0, 11.9, 12.2, 12.1, 11.8, 12.0, 12.1}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant(0.01) {
		t.Errorf("clearly different samples not significant: p=%v", res.P)
	}
	if res.MeanDiff >= 0 {
		t.Errorf("mean diff sign wrong: %v", res.MeanDiff)
	}
}

func TestWelchTTestNoDifference(t *testing.T) {
	a := []float64{10, 10.2, 9.8, 10.1, 9.9}
	b := []float64{10.05, 10.15, 9.85, 10.0, 9.95}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Significant(0.01) {
		t.Errorf("similar samples reported significant: p=%v", res.P)
	}
}

func TestWelchTTestIdenticalConstant(t *testing.T) {
	res, err := WelchTTest([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("p = %v, want 1", res.P)
	}
}

func TestWelchTTestTooFewSamples(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error")
	}
}

func TestTCDFMatchesKnownValues(t *testing.T) {
	// For df -> large, t distribution approaches the normal: CDF(1.96) ≈ 0.975.
	got := tCDF(1.96, 1000)
	if !almostEqual(got, 0.975, 0.002) {
		t.Errorf("tCDF(1.96, 1000) = %v", got)
	}
	// Known t table value: df=10, p=0.975 → t ≈ 2.228.
	q := tQuantile(0.975, 10)
	if !almostEqual(q, 2.228, 0.01) {
		t.Errorf("tQuantile(0.975, 10) = %v, want 2.228", q)
	}
}

func TestQuickMeanWithinMinMax(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m, err := Mean(clean)
		if err != nil {
			return false
		}
		mn, _ := Min(clean)
		mx, _ := Max(clean)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	prop := func(xs []float64, a, b uint8) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, err1 := Percentile(clean, pa)
		vb, err2 := Percentile(clean, pb)
		return err1 == nil && err2 == nil && va <= vb+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIntervalOverlapBoundary pins the inclusive overlap boundary the
// significance rule builds on: exactly-touching intervals OVERLAP (the
// shared endpoint is plausible for both means), and Disjoint is its
// exact negation — in both argument orders.
func TestIntervalOverlapBoundary(t *testing.T) {
	cases := []struct {
		name     string
		a, b     Interval
		overlaps bool
	}{
		{"separated", Interval{Lo: 1, Hi: 2}, Interval{Lo: 3, Hi: 4}, false},
		{"touching", Interval{Lo: 1, Hi: 2}, Interval{Lo: 2, Hi: 3}, true},
		{"overlapping", Interval{Lo: 1, Hi: 3}, Interval{Lo: 2, Hi: 4}, true},
		{"nested", Interval{Lo: 1, Hi: 10}, Interval{Lo: 4, Hi: 5}, true},
		{"identical", Interval{Lo: 1, Hi: 2}, Interval{Lo: 1, Hi: 2}, true},
		{"degenerate equal", Interval{Lo: 5, Hi: 5}, Interval{Lo: 5, Hi: 5}, true},
		{"degenerate apart", Interval{Lo: 5, Hi: 5}, Interval{Lo: 7, Hi: 7}, false},
		{"degenerate on edge", Interval{Lo: 5, Hi: 5}, Interval{Lo: 5, Hi: 9}, true},
	}
	for _, tc := range cases {
		for _, order := range []struct{ x, y Interval }{{tc.a, tc.b}, {tc.b, tc.a}} {
			if got := order.x.Overlaps(order.y); got != tc.overlaps {
				t.Errorf("%s: Overlaps(%v, %v) = %v, want %v", tc.name, order.x, order.y, got, tc.overlaps)
			}
			if got := order.x.Disjoint(order.y); got != !tc.overlaps {
				t.Errorf("%s: Disjoint(%v, %v) = %v, want %v", tc.name, order.x, order.y, got, !tc.overlaps)
			}
		}
	}
}

// TestWelchTTestZeroVarianceDifferentMeans covers the degenerate branch
// where both samples are constant but unequal: the difference is certain,
// so the statistic is signed infinity with p = 0, in both directions.
func TestWelchTTestZeroVarianceDifferentMeans(t *testing.T) {
	r, err := WelchTTest([]float64{2, 2, 2}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.T, 1) || r.P != 0 || r.MeanDiff != 1 {
		t.Fatalf("a>b constant samples: %+v, want T=+Inf P=0 MeanDiff=1", r)
	}
	r, err = WelchTTest([]float64{1, 1, 1}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.T, -1) || r.P != 0 || r.MeanDiff != -1 {
		t.Fatalf("a<b constant samples: %+v, want T=-Inf P=0 MeanDiff=-1", r)
	}
}

// TestEmptyInputErrors sweeps the descriptive statistics over an empty
// sample: every one must report ErrEmpty rather than a silent zero.
func TestEmptyInputErrors(t *testing.T) {
	if _, err := StdDev(nil); err == nil {
		t.Error("StdDev(nil) succeeded")
	}
	if _, err := Min(nil); err == nil {
		t.Error("Min(nil) succeeded")
	}
	if _, err := Max(nil); err == nil {
		t.Error("Max(nil) succeeded")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean(nil) succeeded")
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) succeeded")
	}
}

// TestTQuantileBounds covers the quantile's domain guards and midpoint.
func TestTQuantileBounds(t *testing.T) {
	if !math.IsNaN(tQuantile(0, 5)) || !math.IsNaN(tQuantile(1, 5)) {
		t.Error("tQuantile outside (0,1) must be NaN")
	}
	if q := tQuantile(0.5, 5); q != 0 {
		t.Errorf("tQuantile(0.5) = %v, want 0", q)
	}
}
