package plot

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBarPlotRendersSVG(t *testing.T) {
	p := BarPlot{
		Categories: []string{"a", "b", "c"},
		Values:     []float64{1, 2, 3},
		SeriesName: "series",
		Opts:       Options{Title: "test plot", YLabel: "value"},
	}
	svg, err := p.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "</svg>", "test plot", "value", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestBarPlotValidation(t *testing.T) {
	p := BarPlot{Categories: []string{"a"}, Values: []float64{1, 2}}
	if _, err := p.RenderSVG(); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	empty := BarPlot{}
	if _, err := empty.RenderSVG(); err == nil {
		t.Error("expected error for empty plot")
	}
}

func TestBarPlotASCII(t *testing.T) {
	p := BarPlot{
		Categories: []string{"alpha", "beta"},
		Values:     []float64{10, 5},
		Opts:       Options{Title: "ascii"},
	}
	out, err := p.RenderASCII(60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "█") {
		t.Errorf("ascii output:\n%s", out)
	}
}

func TestGroupedBarPlot(t *testing.T) {
	p := GroupedBarPlot{
		Categories: []string{"fft", "lu", "All"},
		Series: []Series{
			{Name: "Native (Clang)", Values: []float64{1.7, 1.05, 1.2}},
		},
		Opts: Options{RefLine: 1.0},
	}
	svg, err := p.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	// One bar per category plus background and legend rects.
	if strings.Count(svg, "<rect") < 3 {
		t.Error("too few bars rendered")
	}
	if !strings.Contains(svg, "Native (Clang)") {
		t.Error("legend missing")
	}
}

func TestGroupedBarPlotMismatchedSeries(t *testing.T) {
	p := GroupedBarPlot{
		Categories: []string{"a", "b"},
		Series:     []Series{{Name: "s", Values: []float64{1}}},
	}
	if _, err := p.RenderSVG(); err == nil {
		t.Error("expected validation error")
	}
}

func TestStackedGroupedBarPlot(t *testing.T) {
	p := StackedGroupedBarPlot{
		Categories: []string{"fft"},
		Groups: []StackGroup{
			{Name: "gcc", Series: []Series{
				{Name: "L1", Values: []float64{5}},
				{Name: "LLC", Values: []float64{1}},
			}},
			{Name: "clang", Series: []Series{
				{Name: "L1", Values: []float64{6}},
				{Name: "LLC", Values: []float64{2}},
			}},
		},
	}
	svg, err := p.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<rect") < 5 {
		t.Error("expected 4 stack segments plus background")
	}
}

func TestStackedGroupedNegativeRejected(t *testing.T) {
	p := StackedGroupedBarPlot{
		Categories: []string{"x"},
		Groups:     []StackGroup{{Series: []Series{{Name: "s", Values: []float64{-1}}}}},
	}
	if _, err := p.RenderSVG(); err == nil {
		t.Error("expected error for negative stack segment")
	}
}

func TestLinePlot(t *testing.T) {
	p := LinePlot{
		Series: []LineSeries{
			{Name: "gcc", Points: []LinePoint{{1, 0.2}, {10, 0.3}, {40, 0.7}}},
			{Name: "clang", Points: []LinePoint{{1, 0.25}, {8, 0.35}, {30, 0.9}}},
		},
		Opts:    Options{XLabel: "tput", YLabel: "latency"},
		Markers: true,
	}
	svg, err := p.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Error("expected two polylines")
	}
	if strings.Count(svg, "<circle") != 6 {
		t.Errorf("expected 6 markers, got %d", strings.Count(svg, "<circle"))
	}
}

func TestLinePlotEmptySeries(t *testing.T) {
	p := LinePlot{Series: []LineSeries{{Name: "e"}}}
	if _, err := p.RenderSVG(); err == nil {
		t.Error("expected error for empty series")
	}
	none := LinePlot{}
	if _, err := none.RenderSVG(); err == nil {
		t.Error("expected error for no series")
	}
}

func TestNiceTicksCoverRange(t *testing.T) {
	ticks := niceTicks(0.13, 9.7, 6)
	if len(ticks) < 2 {
		t.Fatalf("ticks = %v", ticks)
	}
	if ticks[0] > 0.13 || ticks[len(ticks)-1] < 9.7 {
		t.Errorf("ticks %v do not cover [0.13, 9.7]", ticks)
	}
}

func TestNiceTicksDegenerate(t *testing.T) {
	ticks := niceTicks(5, 5, 4)
	if len(ticks) < 2 {
		t.Errorf("degenerate range ticks = %v", ticks)
	}
}

func TestNiceNum(t *testing.T) {
	cases := []struct {
		in    float64
		round bool
		want  float64
	}{
		{1.2, true, 1}, {2.4, true, 2}, {4.5, true, 5}, {8, true, 10},
		{1.5, false, 2}, {0.7, false, 1},
	}
	for _, c := range cases {
		if got := niceNum(c.in, c.round); got != c.want {
			t.Errorf("niceNum(%v, %t) = %v, want %v", c.in, c.round, got, c.want)
		}
	}
}

func TestSVGEscape(t *testing.T) {
	got := svgEscape(`a<b>&"c"`)
	if strings.ContainsAny(got, "<>") && !strings.Contains(got, "&lt;") {
		t.Errorf("escape failed: %q", got)
	}
	if !strings.Contains(got, "&amp;") || !strings.Contains(got, "&quot;") {
		t.Errorf("escape failed: %q", got)
	}
}

func TestFormatTick(t *testing.T) {
	if got := formatTick(2); got != "2" {
		t.Errorf("formatTick(2) = %q", got)
	}
	if got := formatTick(0.5); got != "0.5" {
		t.Errorf("formatTick(0.5) = %q", got)
	}
}

func TestQuickTicksOrdered(t *testing.T) {
	prop := func(a, b float64) bool {
		if a != a || b != b || a < -1e12 || a > 1e12 || b < -1e12 || b > 1e12 {
			return true
		}
		ticks := niceTicks(a, b, 6)
		for i := 1; i < len(ticks); i++ {
			if ticks[i] <= ticks[i-1] {
				return false
			}
		}
		return len(ticks) >= 2 && len(ticks) <= 40
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickBarPlotAlwaysValidSVG(t *testing.T) {
	prop := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 30 {
			return true
		}
		cats := make([]string, len(vals))
		clean := make([]float64, len(vals))
		for i := range vals {
			cats[i] = "c" + string(rune('a'+i%26))
			v := vals[i]
			if v != v || v > 1e12 || v < -1e12 {
				v = 0
			}
			clean[i] = v
		}
		p := BarPlot{Categories: cats, Values: clean}
		svg, err := p.RenderSVG()
		return err == nil && strings.HasPrefix(svg, "<svg") && strings.HasSuffix(strings.TrimSpace(svg), "</svg>")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
