package main

import (
	"sort"
	"time"

	"fex/internal/stats"
)

// tailLevels is the ladder the tail-latency metric picks from: the
// highest level that still has at least minBeyond samples above it.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs, 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, 100*p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads printed here match ones computed from the same results in
// Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // may fall outside [0,4]: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tail returns the highest ladder percentile of xs that has at least
// minBeyond samples beyond it, and that level. ok is false when even the
// median lacks minBeyond samples beyond it (fewer than 20 samples).
func tail(xs []float64) (value, level float64, ok bool) {
	for _, p := range tailLevels {
		if float64(len(xs))*(1-p) >= minBeyond-1e-9 { // 100*(1-0.9) is 9.999…
			return quantile(xs, p), p, true
		}
	}
	return 0, 0, false
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopSample is one request of an open-loop generator: when it was
// due, when the generator actually sent it, and when it settled.
type openLoopSample struct {
	due, sent, settled time.Time
}

// openLoopLatency returns each request's latency measured from its due
// time, so a stall also charges the requests queued behind it, and how
// late the generator sent each one.
func openLoopLatency(reqs []openLoopSample) (latencyMS, lagMS []float64) {
	for _, r := range reqs {
		latencyMS = append(latencyMS, ms(r.settled.Sub(r.due)))
		lag := r.sent.Sub(r.due)
		if lag < 0 {
			lag = 0
		}
		lagMS = append(lagMS, ms(lag))
	}
	return latencyMS, lagMS
}

// fifoStarts derives when each run of a single FIFO executor started:
// a run starts once it was submitted and its predecessor settled. Runs
// are given in submission order.
func fifoStarts(submit, settle []time.Time) []time.Time {
	starts := make([]time.Time, len(submit))
	for i := range submit {
		starts[i] = submit[i]
		if i > 0 && settle[i-1].After(starts[i]) {
			starts[i] = settle[i-1]
		}
	}
	return starts
}
