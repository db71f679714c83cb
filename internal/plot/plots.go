package plot

import (
	"fmt"
	"math"
	"strings"
)

// Options configures a plot's appearance.
type Options struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height are the SVG dimensions in pixels; defaults 720×420.
	Width, Height float64
	// RefLine draws a horizontal reference line at the given y (e.g. 1.0 for
	// normalized-runtime plots). NaN disables it.
	RefLine float64
}

func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 720
	}
	if o.Height == 0 {
		o.Height = 420
	}
	if o.RefLine == 0 {
		o.RefLine = math.NaN()
	}
	return o
}

// BarPlot is a regular barplot: one bar per category (used for performance
// and memory overheads).
type BarPlot struct {
	Categories []string
	Values     []float64
	SeriesName string
	Opts       Options
}

// RenderSVG renders the barplot as an SVG document.
func (p *BarPlot) RenderSVG() (string, error) {
	if len(p.Categories) != len(p.Values) {
		return "", errf("barplot: %d categories vs %d values", len(p.Categories), len(p.Values))
	}
	if len(p.Categories) == 0 {
		return "", errf("barplot: no data")
	}
	g := &GroupedBarPlot{
		Categories: p.Categories,
		Series:     []Series{{Name: p.SeriesName, Values: p.Values}},
		Opts:       p.Opts,
	}
	return g.RenderSVG()
}

// RenderASCII renders the barplot as fixed-width text.
func (p *BarPlot) RenderASCII(width int) (string, error) {
	if len(p.Categories) != len(p.Values) {
		return "", errf("barplot: %d categories vs %d values", len(p.Categories), len(p.Values))
	}
	return asciiBars(p.Opts.Title, p.Categories, p.Values, width)
}

// Series is one named data series of a multi-series plot.
type Series struct {
	Name   string
	Values []float64
}

// GroupedBarPlot draws len(Series) bars side by side for every category
// (e.g. one bar per build type per benchmark).
type GroupedBarPlot struct {
	Categories []string
	Series     []Series
	Opts       Options
}

// RenderSVG renders the grouped barplot as an SVG document.
func (p *GroupedBarPlot) RenderSVG() (string, error) {
	if err := p.validate(); err != nil {
		return "", err
	}
	o := p.Opts.withDefaults()
	series := make([][]float64, len(p.Series))
	names := make([]string, len(p.Series))
	for i, s := range p.Series {
		series[i] = s.Values
		names[i] = s.Name
	}
	lo, hi := dataRange(series, true)
	if !math.IsNaN(o.RefLine) && o.RefLine > hi {
		hi = o.RefLine
	}
	c := newSVGCanvas(o.Width, o.Height)
	f := newFrame(c, o.Title, o.XLabel, o.YLabel, lo, hi)
	if len(names) > 1 || (len(names) == 1 && names[0] != "") {
		f.legend(names)
	}

	nCat := len(p.Categories)
	nSer := len(p.Series)
	slot := f.plotW / float64(nCat)
	groupW := slot * 0.8
	barW := groupW / float64(nSer)
	y0 := f.yScale.apply(math.Max(f.yTicks[0], 0))

	for ci, cat := range p.Categories {
		gx := f.plotX + float64(ci)*slot + (slot-groupW)/2
		for si := range p.Series {
			v := p.Series[si].Values[ci]
			y := f.yScale.apply(v)
			top, h := y, y0-y
			if h < 0 {
				top, h = y0, -h
			}
			c.rect(gx+float64(si)*barW, top, barW*0.92, h, color(si))
		}
		c.text(gx+groupW/2, f.plotY+f.plotH+16, cat, "end", fontSize-1, -45)
	}
	if !math.IsNaN(o.RefLine) {
		y := f.yScale.apply(o.RefLine)
		c.line(f.plotX, y, f.plotX+f.plotW, y, "#888888", 1)
	}
	return c.String(), nil
}

func (p *GroupedBarPlot) validate() error {
	if len(p.Categories) == 0 {
		return errf("grouped barplot: no categories")
	}
	if len(p.Series) == 0 {
		return errf("grouped barplot: no series")
	}
	for _, s := range p.Series {
		if len(s.Values) != len(p.Categories) {
			return errf("grouped barplot: series %q has %d values, want %d", s.Name, len(s.Values), len(p.Categories))
		}
	}
	return nil
}

// StackGroup is one group of a stacked-grouped barplot: a full stack.
type StackGroup struct {
	Name   string
	Series []Series
}

// StackedGroupedBarPlot draws, for every category, one stacked bar per group
// (the paper's "stacked-grouped barplot" for statistics such as cache misses
// at different levels across build types).
type StackedGroupedBarPlot struct {
	Categories []string
	Groups     []StackGroup
	Opts       Options
}

// RenderSVG renders the plot as an SVG document.
func (p *StackedGroupedBarPlot) RenderSVG() (string, error) {
	if len(p.Categories) == 0 {
		return "", errf("stacked-grouped barplot: no categories")
	}
	if len(p.Groups) == 0 {
		return "", errf("stacked-grouped barplot: no groups")
	}
	// Collect segment names (union across groups, stable order) and totals.
	var segNames []string
	segIdx := map[string]int{}
	maxTotal := 0.0
	for _, g := range p.Groups {
		total := make([]float64, len(p.Categories))
		for _, s := range g.Series {
			if len(s.Values) != len(p.Categories) {
				return "", errf("stacked-grouped barplot: series %q has %d values, want %d",
					s.Name, len(s.Values), len(p.Categories))
			}
			if _, ok := segIdx[s.Name]; !ok {
				segIdx[s.Name] = len(segNames)
				segNames = append(segNames, s.Name)
			}
			for i, v := range s.Values {
				if v < 0 {
					return "", errf("stacked-grouped barplot: negative segment %v", v)
				}
				total[i] += v
			}
		}
		for _, t := range total {
			if t > maxTotal {
				maxTotal = t
			}
		}
	}

	o := p.Opts.withDefaults()
	c := newSVGCanvas(o.Width, o.Height)
	f := newFrame(c, o.Title, o.XLabel, o.YLabel, 0, maxTotal)
	f.legend(segNames)

	nCat := len(p.Categories)
	nGrp := len(p.Groups)
	slot := f.plotW / float64(nCat)
	groupW := slot * 0.8
	barW := groupW / float64(nGrp)
	for ci, cat := range p.Categories {
		gx := f.plotX + float64(ci)*slot + (slot-groupW)/2
		for gi, g := range p.Groups {
			acc := 0.0
			x := gx + float64(gi)*barW
			for _, s := range g.Series {
				v := s.Values[ci]
				yBot := f.yScale.apply(acc)
				yTop := f.yScale.apply(acc + v)
				c.rect(x, yTop, barW*0.9, yBot-yTop, color(segIdx[s.Name]))
				acc += v
			}
			if g.Name != "" {
				c.text(x+barW/2, f.plotY+f.plotH+12, g.Name, "middle", fontSize-3, 0)
			}
		}
		c.text(gx+groupW/2, f.plotY+f.plotH+28, cat, "end", fontSize-1, -45)
	}
	return c.String(), nil
}

// LinePoint is an (x, y) pair of a line series.
type LinePoint struct {
	X, Y float64
}

// LineSeries is one named polyline.
type LineSeries struct {
	Name   string
	Points []LinePoint
}

// LinePlot draws one polyline per series over a continuous x axis — used
// for multithreading overheads and for Figure 7's throughput–latency curves
// (x = throughput, y = latency).
type LinePlot struct {
	Series  []LineSeries
	Opts    Options
	Markers bool
}

// RenderSVG renders the lineplot as an SVG document.
func (p *LinePlot) RenderSVG() (string, error) {
	if len(p.Series) == 0 {
		return "", errf("lineplot: no series")
	}
	var xs, ys [][]float64
	for _, s := range p.Series {
		if len(s.Points) == 0 {
			return "", errf("lineplot: series %q is empty", s.Name)
		}
		sx := make([]float64, len(s.Points))
		sy := make([]float64, len(s.Points))
		for i, pt := range s.Points {
			sx[i], sy[i] = pt.X, pt.Y
		}
		xs = append(xs, sx)
		ys = append(ys, sy)
	}
	xLo, xHi := dataRange(xs, false)
	yLo, yHi := dataRange(ys, false)

	o := p.Opts.withDefaults()
	c := newSVGCanvas(o.Width, o.Height)
	f := newFrame(c, o.Title, o.XLabel, o.YLabel, yLo, yHi)
	names := make([]string, len(p.Series))
	for i, s := range p.Series {
		names[i] = s.Name
	}
	f.legend(names)

	xTicks := niceTicks(xLo, xHi, 7)
	xScale := newLinScale(xTicks[0], xTicks[len(xTicks)-1], f.plotX, f.plotX+f.plotW)
	for _, tv := range xTicks {
		x := xScale.apply(tv)
		c.line(x, f.plotY, x, f.plotY+f.plotH, "#eeeeee", 1)
		c.text(x, f.plotY+f.plotH+16, formatTick(tv), "middle", fontSize-1, 0)
	}

	for si, s := range p.Series {
		pts := make([][2]float64, len(s.Points))
		for i, pt := range s.Points {
			pts[i] = [2]float64{xScale.apply(pt.X), f.yScale.apply(pt.Y)}
		}
		c.polyline(pts, color(si), 2)
		if p.Markers {
			for _, pt := range pts {
				c.circle(pt[0], pt[1], 3, color(si))
			}
		}
	}
	return c.String(), nil
}

// asciiBars renders labeled horizontal bars scaled to the max value.
func asciiBars(title string, labels []string, values []float64, width int) (string, error) {
	if len(labels) != len(values) {
		return "", errf("ascii bars: %d labels vs %d values", len(labels), len(values))
	}
	if len(labels) == 0 {
		return "", errf("ascii bars: no data")
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	maxV := 0.0
	labelW := 0
	for i, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
		if values[i] > maxV {
			maxV = values[i]
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	barSpace := width - labelW - 12
	if barSpace < 10 {
		barSpace = 10
	}
	for i, l := range labels {
		n := int(math.Round(values[i] / maxV * float64(barSpace)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "%-*s %s %.4g\n", labelW, l, strings.Repeat("█", n), values[i])
	}
	return sb.String(), nil
}
