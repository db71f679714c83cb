// Package plot renders the plot families FEX supports (Table I of the
// paper): regular barplot, grouped barplot, stacked-grouped barplot (a
// stacked barplot is its one-group case), and lineplot (including the
// throughput–latency curves of Figure 7). Every plot renders as SVG (for
// files, replacing matplotlib's PDF output); the regular barplot also
// renders as ASCII for terminals and logs.
package plot

import (
	"fmt"
	"math"
	"strconv"
)

// linScale maps a data range onto a pixel range.
type linScale struct {
	dMin, dMax float64 // data domain
	pMin, pMax float64 // pixel range
}

func newLinScale(dMin, dMax, pMin, pMax float64) linScale {
	if dMax == dMin {
		dMax = dMin + 1
	}
	return linScale{dMin: dMin, dMax: dMax, pMin: pMin, pMax: pMax}
}

func (s linScale) apply(x float64) float64 {
	t := (x - s.dMin) / (s.dMax - s.dMin)
	return s.pMin + t*(s.pMax-s.pMin)
}

// niceTicks returns ~n human-friendly tick positions covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi == lo {
		hi = lo + 1
	}
	span := niceNum(hi-lo, false)
	step := niceNum(span/float64(n-1), true)
	start := math.Floor(lo/step) * step
	end := math.Ceil(hi/step) * step
	var ticks []float64
	for v := start; v <= end+step/2; v += step {
		// Clean up float error accumulation.
		ticks = append(ticks, math.Round(v/step)*step)
	}
	return ticks
}

// niceNum rounds x to a "nice" value (1, 2, 5 × 10^k). From Graphics Gems.
func niceNum(x float64, round bool) float64 {
	if x <= 0 {
		return 1
	}
	exp := math.Floor(math.Log10(x))
	f := x / math.Pow(10, exp)
	var nf float64
	if round {
		switch {
		case f < 1.5:
			nf = 1
		case f < 3:
			nf = 2
		case f < 7:
			nf = 5
		default:
			nf = 10
		}
	} else {
		switch {
		case f <= 1:
			nf = 1
		case f <= 2:
			nf = 2
		case f <= 5:
			nf = 5
		default:
			nf = 10
		}
	}
	return nf * math.Pow(10, exp)
}

// formatTick renders a tick label without trailing float noise.
func formatTick(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// dataRange returns the min and max over all series, extended to include
// zero when includeZero is set (bar plots must start at zero).
func dataRange(series [][]float64, includeZero bool) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if includeZero {
		if lo > 0 {
			lo = 0
		}
		if hi < 0 {
			hi = 0
		}
	}
	if lo == hi {
		hi = lo + 1
	}
	return lo, hi
}

// palette is the default color cycle (hex RGB), chosen to be readable in
// both SVG fills and legends.
var palette = []string{
	"#4C72B0", "#DD8452", "#55A868", "#C44E52",
	"#8172B3", "#937860", "#DA8BC3", "#8C8C8C",
	"#CCB974", "#64B5CD",
}

func color(i int) string { return palette[i%len(palette)] }

func fmtF(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func svgEscape(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '&':
			out = append(out, []rune("&amp;")...)
		case '<':
			out = append(out, []rune("&lt;")...)
		case '>':
			out = append(out, []rune("&gt;")...)
		case '"':
			out = append(out, []rune("&quot;")...)
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// errf builds plot errors with a consistent prefix.
func errf(format string, args ...any) error {
	return fmt.Errorf("plot: "+format, args...)
}
