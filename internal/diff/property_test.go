package diff

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestVerdictMatchesGroundTruthProperty drives the significance rule over
// synthetic sample distributions with KNOWN effect sizes: for every
// generated (mean, noise level, alpha) configuration,
//
//   - a zero effect (candidate drawn from the same distribution) must
//     verdict "no-change" — identical samples give p = 1 and overlapping
//     intervals at any alpha;
//   - a large effect (x2 cost, dozens of noise standard deviations) must
//     verdict "regression", and the mirrored large improvement (x0.5)
//     must verdict "improvement".
//
// The samples use a fixed symmetric noise pattern so the property is a
// deterministic function of the generated parameters — there is no
// sampling error to make the check flaky.
func TestVerdictMatchesGroundTruthProperty(t *testing.T) {
	// Symmetric, zero-mean noise offsets (in units of sigma) applied to
	// every synthetic sample set; 8 repetitions.
	offsets := []float64{-1.5, -1, -0.5, -0.25, 0.25, 0.5, 1, 1.5}
	synth := func(mean, sigma float64) []float64 {
		out := make([]float64, len(offsets))
		for i, o := range offsets {
			out[i] = mean + o*sigma
		}
		return out
	}
	property := func(meanSeed uint16, sigmaSeed, alphaSeed uint8) bool {
		mean := 100 + float64(meanSeed)                      // [100, 65635]
		sigma := mean * (0.001 + float64(sigmaSeed%20)/1000) // 0.1% .. 2% CoV
		alpha := []float64{0.05, 0.01, 0.001}[int(alphaSeed)%3]
		for _, tc := range []struct {
			factor float64
			want   Verdict
		}{
			{1.0, VerdictNoChange},
			{2.0, VerdictRegression},
			{0.5, VerdictImprovement},
		} {
			base := runSetOf(t, "base",
				cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: synth(mean, sigma)}))
			cand := runSetOf(t, "cand",
				cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: synth(mean*tc.factor, sigma)}))
			report, err := Compare(base, cand, Options{Alpha: alpha})
			if err != nil {
				t.Fatal(err)
			}
			if got := report.Deltas[0].Verdict; got != tc.want {
				t.Logf("mean=%v sigma=%v alpha=%v factor=%v: verdict %s, want %s (p=%v)",
					mean, sigma, alpha, tc.factor, got, tc.want, report.Deltas[0].Stats.Test.P)
				return false
			}
			// The gate agrees with the verdict: only the regression fails it.
			if report.Gate(0).OK() != (tc.want != VerdictRegression) {
				t.Logf("gate disagrees with verdict %s", tc.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestComparisonSignificantAgreesAcrossEffectSizes sweeps the effect size
// through the noise floor and pins the two-rule verdict's monotonicity: a
// sub-noise effect is never significant, an effect far above the noise
// always is, and the rule never reports a significant change in the wrong
// direction.
func TestComparisonSignificantAgreesAcrossEffectSizes(t *testing.T) {
	offsets := []float64{-1, -0.5, 0.5, 1}
	synth := func(mean, sigma float64) []float64 {
		out := make([]float64, len(offsets))
		for i, o := range offsets {
			out[i] = mean + o*sigma
		}
		return out
	}
	const mean, sigma = 1000.0, 10.0
	for _, shiftSigmas := range []float64{0, 0.1, 0.25, 20, 50} {
		shifted := mean + shiftSigmas*sigma
		base := runSetOf(t, "base", cellOf("e", "s", "b", "t", []int{1}, "i",
			map[int][]float64{1: synth(mean, sigma)}))
		cand := runSetOf(t, "cand", cellOf("e", "s", "b", "t", []int{1}, "i",
			map[int][]float64{1: synth(shifted, sigma)}))
		report, err := Compare(base, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := report.Deltas[0]
		switch {
		case shiftSigmas < 0.5: // within the noise: must not flag
			if d.Verdict != VerdictNoChange {
				t.Errorf("shift %.2f sigma flagged %s (p=%v)", shiftSigmas, d.Verdict, d.Stats.Test.P)
			}
		case shiftSigmas >= 20: // far above the noise: must flag as regression
			if d.Verdict != VerdictRegression {
				t.Errorf("shift %.0f sigma verdict %s, want regression (p=%v)", shiftSigmas, d.Verdict, d.Stats.Test.P)
			}
		}
		if d.Verdict == VerdictImprovement {
			t.Errorf("shift +%.2f sigma reported an improvement", shiftSigmas)
		}
	}
}

// TestGateThresholdProperty pins the gate threshold arithmetic: for a
// known planted regression of R percent, every threshold below R fails
// and every threshold above R passes.
func TestGateThresholdProperty(t *testing.T) {
	mk := func(mean float64) *RunSet {
		return runSetOf(t, fmt.Sprintf("rs-%g", mean),
			cellOf("e", "s", "b", "t", []int{1}, "i",
				map[int][]float64{1: {mean, mean * 1.001, mean * 0.999, mean}}))
	}
	report, err := Compare(mk(100), mk(150), Options{}) // +50% regression
	if err != nil {
		t.Fatal(err)
	}
	if report.Deltas[0].Verdict != VerdictRegression {
		t.Fatalf("setup: verdict %s", report.Deltas[0].Verdict)
	}
	for _, tc := range []struct {
		threshold float64
		ok        bool
	}{{0, false}, {10, false}, {49, false}, {51, true}, {100, true}} {
		if got := report.Gate(tc.threshold).OK(); got != tc.ok {
			t.Errorf("gate(%g%%) = %v, want %v (regression is +50%%)", tc.threshold, got, tc.ok)
		}
	}
}

// TestGateZeroBaselineRegression pins the zero-baseline edge of the
// threshold arithmetic: a significant regression from an exactly-zero
// baseline has no finite percentage, so it must fail the gate at EVERY
// threshold rather than slipping through as "0% worse".
func TestGateZeroBaselineRegression(t *testing.T) {
	base := runSetOf(t, "base", cellOf("e", "s", "b", "t", []int{1}, "i",
		map[int][]float64{1: {0, 0, 0}}))
	cand := runSetOf(t, "cand", cellOf("e", "s", "b", "t", []int{1}, "i",
		map[int][]float64{1: {5, 5, 5}}))
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Deltas[0].Verdict != VerdictRegression {
		t.Fatalf("verdict %s, want regression", report.Deltas[0].Verdict)
	}
	for _, threshold := range []float64{0, 10, 1e9} {
		if report.Gate(threshold).OK() {
			t.Errorf("gate(%g%%) passed a regression from a zero baseline", threshold)
		}
	}
	// The reverse direction — dropping to zero — is an improvement on a
	// cost metric and never fails.
	improved, err := Compare(cand, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if improved.Deltas[0].Verdict != VerdictImprovement || !improved.Gate(0).OK() {
		t.Errorf("zero-candidate: verdict %s, gate ok=%v", improved.Deltas[0].Verdict, improved.Gate(0).OK())
	}
}
