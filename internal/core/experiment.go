package core

import (
	"errors"
	"fmt"
	"sort"

	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/table"
)

// ExperimentKind classifies the built-in experiment families (Table I:
// "Performance and memory overheads, security evaluation" plus
// throughput–latency for the real-world applications).
type ExperimentKind int

// Experiment kinds.
const (
	KindPerformance ExperimentKind = iota + 1
	KindMemory
	KindVariableInput
	KindThroughputLatency
	KindSecurity
)

// String returns the kind name.
func (k ExperimentKind) String() string {
	switch k {
	case KindPerformance:
		return "performance"
	case KindMemory:
		return "memory"
	case KindVariableInput:
		return "variable-input"
	case KindThroughputLatency:
		return "throughput-latency"
	case KindSecurity:
		return "security"
	default:
		return fmt.Sprintf("ExperimentKind(%d)", int(k))
	}
}

// Experiment describes one registered experiment: which runner executes
// it, how its log is collected into a table, and how the table is
// plotted. Users extend FEX by registering new Experiments — the paper's
// §III-A workflow of writing run.py / collect.py / plot.py.
type Experiment struct {
	// Name is the -n value ("phoenix", "splash", "nginx", "ripe", …).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Suite names the workload suite this experiment runs ("" for
	// app-level experiments like nginx).
	Suite string
	// Kind classifies the experiment.
	Kind ExperimentKind
	// DefaultTypes are the build types used when -t is omitted.
	DefaultTypes []string
	// PlotKinds lists the plot names Plot accepts.
	PlotKinds []string
	// NewRunner constructs the experiment's runner.
	NewRunner func(fx *Fex) (Runner, error)
	// Collect aggregates a parsed run log into a table; nil uses
	// GenericCollect (re-use of the generic collect.py, §III-A).
	Collect func(lg *runlog.Log) (*table.Table, error)
	// Plot renders a named plot from the collected table; nil means the
	// experiment has no plots (like RIPE).
	Plot func(tbl *table.Table, kind string) (string, error)
	// Validate optionally rejects unsupported configurations.
	Validate func(cfg Config) error
}

// ValidateConfig applies the experiment's config validation.
func (e *Experiment) ValidateConfig(cfg Config) error {
	if e.Validate != nil {
		return e.Validate(cfg)
	}
	return nil
}

// RegisterExperiment adds an experiment; duplicate names are an error.
func (fx *Fex) RegisterExperiment(e *Experiment) error {
	if e == nil || e.Name == "" {
		return errors.New("core: experiment requires a name")
	}
	if e.NewRunner == nil {
		return fmt.Errorf("core: experiment %q requires a runner", e.Name)
	}
	if _, dup := fx.experiments[e.Name]; dup {
		return fmt.Errorf("core: duplicate experiment %q", e.Name)
	}
	fx.experiments[e.Name] = e
	return nil
}

// Experiment looks up a registered experiment.
func (fx *Fex) Experiment(name string) (*Experiment, error) {
	e, ok := fx.experiments[name]
	if !ok {
		names := fx.ExperimentNames()
		return nil, fmt.Errorf("core: unknown experiment %q (have: %v)", name, names)
	}
	return e, nil
}

// ExperimentNames lists registered experiments, sorted.
func (fx *Fex) ExperimentNames() []string {
	out := make([]string, 0, len(fx.experiments))
	for n := range fx.experiments {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GenericCollect is the stock collect stage: it averages each metric over
// repetitions, grouped by (suite, benchmark, build type, threads), and
// emits one row per group — the generic collect.py most experiments
// re-use unchanged. A metric that read the same value in every
// repetition reports exactly that value, not a sum divided back. Each
// group sums into slices indexed by the column of the union of metric
// names; a record's name→column mapping is reused while consecutive
// records carry the same metric names (a run's records mostly do), so
// most values are summed without a name lookup.
func GenericCollect(lg *runlog.Log) (*table.Table, error) {
	if len(lg.Measurements) == 0 {
		return nil, errors.New("core: log contains no measurements")
	}
	// The union of metric names across the log, in sorted order.
	union := measure.NewMetricVector()
	var prev *measure.MetricVector
	for _, m := range lg.Measurements {
		if prev.SameNames(m.Values) {
			continue
		}
		prev = m.Values
		for i := 0; i < m.Values.Len(); i++ {
			name, _ := m.Values.At(i)
			union.Set(name, 0)
		}
	}
	metrics := union.Names()
	column := make(map[string]int, len(metrics))
	for c, name := range metrics {
		column[name] = c
	}

	type groupKey struct {
		suite, bench, btype string
		threads             int
	}
	// first is a metric's first value; mixed, whether a later one differed.
	type acc struct {
		sums, counts, first []float64
		mixed               []bool
	}
	var order []groupKey
	groups := map[groupKey]*acc{}
	var (
		g    *acc
		gk   groupKey
		cols []int // column of each of prev's metrics
	)
	prev = nil
	for _, m := range lg.Measurements {
		if k := (groupKey{m.Suite, m.Benchmark, m.BuildType, m.Threads}); g == nil || k != gk {
			gk = k
			if g = groups[k]; g == nil {
				g = &acc{
					sums:   make([]float64, len(metrics)),
					counts: make([]float64, len(metrics)),
					first:  make([]float64, len(metrics)),
					mixed:  make([]bool, len(metrics)),
				}
				groups[k] = g
				order = append(order, k)
			}
		}
		if !prev.SameNames(m.Values) {
			prev = m.Values
			cols = cols[:0]
			for i := 0; i < m.Values.Len(); i++ {
				name, _ := m.Values.At(i)
				cols = append(cols, column[name])
			}
		}
		for i, c := range cols {
			_, v := m.Values.At(i)
			if g.counts[c] == 0 {
				g.first[c] = v
			} else if v != g.first[c] {
				g.mixed[c] = true
			}
			g.sums[c] += v
			g.counts[c]++
		}
	}

	out := make([]table.Column, 4+len(metrics))
	out[0] = table.Column{Name: "suite", Kind: table.String, Strings: make([]string, len(order))}
	out[1] = table.Column{Name: "bench", Kind: table.String, Strings: make([]string, len(order))}
	out[2] = table.Column{Name: "type", Kind: table.String, Strings: make([]string, len(order))}
	out[3] = table.Column{Name: "threads", Kind: table.Float, Floats: make([]float64, len(order))}
	for c, name := range metrics {
		out[4+c] = table.Column{Name: name, Kind: table.Float, Floats: make([]float64, len(order))}
	}
	for r, k := range order {
		out[0].Strings[r], out[1].Strings[r], out[2].Strings[r] = k.suite, k.bench, k.btype
		out[3].Floats[r] = float64(k.threads)
		g := groups[k]
		for c := range metrics {
			v := g.first[c] // 0 for a metric the group never recorded
			if g.mixed[c] {
				v = g.sums[c] / g.counts[c]
			}
			out[4+c].Floats[r] = v
		}
	}
	return table.New(out...)
}
