package core

import (
	"fmt"
	"strconv"
	"strings"

	"fex/internal/measure"
	"fex/internal/stats"
)

// This file is the adaptive repetition controller behind -r auto: instead
// of a fixed -r N, each (threads) sweep of a cell runs a pilot batch,
// feeds it to stats.RequiredRepetitions (the Kalibera–Jones-style "how
// many repetitions until the confidence interval is tight enough"
// estimate), and keeps measuring until that count is reached — never
// fewer than the pilot, never more than the cap. Measurement time is
// spent only where variance warrants it.

// Adaptive repetition policy parameters.
const (
	// AdaptivePilot is the pilot batch size: the repetitions always
	// executed before the stop rule is evaluated, and the guaranteed
	// minimum per sweep.
	AdaptivePilot = 5
	// AdaptiveCap bounds the repetitions per sweep no matter how noisy the
	// pilot was.
	AdaptiveCap = 64
	// DefaultRepLevel is the default confidence level of -r auto.
	DefaultRepLevel = 0.95
	// DefaultRepRelWidth is the default target half-width of the
	// confidence interval, as a fraction of the mean.
	DefaultRepRelWidth = 0.05
)

// repController decides, after each measured repetition, whether the sweep
// needs another one. Fixed mode (plain -r N) counts to N; adaptive mode
// (-r auto) resolves its target once the pilot batch is in.
type repController struct {
	fixed           int // > 0 selects fixed mode
	pilot, cap      int
	level, relWidth float64
	target          int // adaptive target, resolved after the pilot
}

// newRepController builds the controller for one sweep of cfg.
func newRepController(cfg Config) *repController {
	if !cfg.AdaptiveReps {
		return &repController{fixed: cfg.Reps}
	}
	return &repController{
		pilot:    AdaptivePilot,
		cap:      AdaptiveCap,
		level:    cfg.RepLevel,
		relWidth: cfg.RepRelWidth,
	}
}

// more reports whether another repetition is needed after n completed
// repetitions whose adaptive-metric values are samples. In adaptive mode
// the target is resolved exactly once, from the pilot batch: it is
// stats.RequiredRepetitions clamped to [pilot, cap]. A pilot too noisy
// for the estimate (RequiredRepetitions exceeds its 1e6 bound) runs to
// the cap — the noisiest cells must get the most repetitions the policy
// allows, not the fewest. A degenerate pilot (constant, zero-mean, or
// missing the metric entirely) stops at the pilot: there is no usable
// dispersion signal to spend repetitions on.
func (rc *repController) more(n int, samples []float64) bool {
	if rc.fixed > 0 {
		return n < rc.fixed
	}
	if n < rc.pilot {
		return true
	}
	if rc.target == 0 {
		rc.target = adaptiveTarget(samples, rc.pilot, rc.cap, rc.level, rc.relWidth)
	}
	return n < rc.target
}

// adaptiveTarget resolves the repetition target from a pilot batch — the
// pure stop rule the property suite pins.
func adaptiveTarget(samples []float64, pilot, cap int, level, relWidth float64) int {
	if len(samples) < pilot {
		return pilot
	}
	req, err := stats.RequiredRepetitions(samples[:pilot], level, relWidth)
	if err != nil {
		mean, _ := stats.Mean(samples[:pilot])
		sd, _ := stats.StdDev(samples[:pilot])
		if mean != 0 && sd != 0 {
			// Estimable but unattainable within the bound: too noisy.
			return cap
		}
		return pilot
	}
	if req > cap {
		return cap
	}
	if req < pilot {
		return pilot
	}
	return req
}

// adaptiveMetric extracts the value the stop rule watches from one
// repetition's metrics: live wall time when present (the one genuinely
// noisy metric), falling back to cycles, then to the first metric in
// sorted name order for custom hooks that report neither. The vector is
// already name-sorted, so the fallback is its first entry — no per-rep
// key sort.
func adaptiveMetric(values *measure.MetricVector) (float64, bool) {
	if v, ok := values.Get("wall_ns"); ok {
		return v, true
	}
	if v, ok := values.Get("cycles"); ok {
		return v, true
	}
	if values.Len() == 0 {
		return 0, false
	}
	_, v := values.At(0)
	return v, true
}

// repsSpec renders cfg's repetition policy canonically for cell
// fingerprints: the fixed count, or the full adaptive stop rule — two
// configs with different stop rules must never alias in the store.
func repsSpec(cfg Config) string {
	if !cfg.AdaptiveReps {
		return strconv.Itoa(cfg.Reps)
	}
	return fmt.Sprintf("auto:%g,%g:pilot=%d:cap=%d", cfg.RepLevel, cfg.RepRelWidth, AdaptivePilot, AdaptiveCap)
}

// ParseRepsSpec parses a -r argument: a positive integer, "auto", or
// "auto:<level>,<relwidth>". It returns the fixed count (0 in adaptive
// mode), whether adaptive mode was selected, and the adaptive parameters
// (0 meaning "use the default").
func ParseRepsSpec(s string) (reps int, adaptive bool, level, relWidth float64, err error) {
	if s == "auto" {
		return 0, true, 0, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "auto:"); ok {
		parts := strings.Split(rest, ",")
		if len(parts) != 2 {
			return 0, false, 0, 0, fmt.Errorf("core: bad -r auto spec %q (want auto:<level>,<relwidth>)", s)
		}
		level, err = strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return 0, false, 0, 0, fmt.Errorf("core: bad -r auto level %q: %w", parts[0], err)
		}
		relWidth, err = strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return 0, false, 0, 0, fmt.Errorf("core: bad -r auto relwidth %q: %w", parts[1], err)
		}
		// Validate explicit values here: downstream, 0 means "use the
		// default", which must not swallow an explicitly typed zero.
		if !(level > 0 && level < 1) {
			return 0, false, 0, 0, fmt.Errorf("core: -r auto level %v out of range (0,1)", level)
		}
		if !(relWidth > 0) {
			return 0, false, 0, 0, fmt.Errorf("core: -r auto relwidth %v must be positive", relWidth)
		}
		return 0, true, level, relWidth, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, false, 0, 0, fmt.Errorf("core: bad -r value %q: %w", s, err)
	}
	return n, false, 0, 0, nil
}
