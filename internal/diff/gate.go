package diff

import (
	"fmt"
	"math"
	"strings"
)

// GateResult is the outcome of applying a regression threshold to a
// report — the decision behind "fex gate"'s exit code.
type GateResult struct {
	// Regressions are the significant regressions whose magnitude exceeds
	// the threshold.
	Regressions []Delta
	// MaxRegressionPct echoes the threshold applied.
	MaxRegressionPct float64
	// BaselineOnly counts baseline cells the candidate never measured —
	// coverage gaps a gate caller may want to treat as suspicious even
	// though they are not regressions.
	BaselineOnly int
	// higherIsBetter echoes the report's metric polarity for rendering.
	higherIsBetter bool
}

// OK reports whether the gate passes.
func (g GateResult) OK() bool { return len(g.Regressions) == 0 }

// String renders the verdict for CI logs.
func (g GateResult) String() string {
	if g.OK() {
		s := fmt.Sprintf("gate: OK (no significant regression above %g%%)", g.MaxRegressionPct)
		if g.BaselineOnly > 0 {
			s += fmt.Sprintf("; warning: %d baseline cells unmatched", g.BaselineOnly)
		}
		return s
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "gate: FAIL — %d significant regressions above %g%%:\n", len(g.Regressions), g.MaxRegressionPct)
	for _, d := range g.Regressions {
		fmt.Fprintf(&sb, "  %s: %+.2f%% (p=%.4g)\n", d.label(), d.regressionPct(g.higherIsBetter), d.Stats.Test.P)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// regressionPct is the delta's regression magnitude in percent: how much
// worse the candidate is than the baseline under the given metric
// polarity. Positive means worse; for a cost metric (the default) that is
// (candidate/baseline - 1) × 100. A regression from an exactly-zero
// baseline has no finite percentage — it is +Inf, so it exceeds every
// threshold and can never slip through the gate.
func (d Delta) regressionPct(higherIsBetter bool) float64 {
	if d.Stats.A.Mean == 0 {
		worse := d.Stats.B.Mean > 0
		if higherIsBetter {
			worse = d.Stats.B.Mean < 0
		}
		if worse {
			return math.Inf(1)
		}
		return 0
	}
	pct := (d.Stats.B.Mean/d.Stats.A.Mean - 1) * 100
	if higherIsBetter {
		return -pct
	}
	return pct
}

// Gate applies a regression threshold: it fails on every delta whose
// verdict is a significant regression AND whose magnitude exceeds
// maxRegressionPct (0 fails on any significant regression at all).
// Improvements and no-change deltas never fail the gate; unmatched
// baseline cells are surfaced as a warning count, not a failure.
func (r *Report) Gate(maxRegressionPct float64) GateResult {
	g := GateResult{MaxRegressionPct: maxRegressionPct, BaselineOnly: len(r.BaselineOnly), higherIsBetter: r.HigherIsBetter}
	for _, d := range r.Deltas {
		if d.Verdict != VerdictRegression {
			continue
		}
		if d.regressionPct(r.HigherIsBetter) > maxRegressionPct {
			g.Regressions = append(g.Regressions, d)
		}
	}
	return g
}
