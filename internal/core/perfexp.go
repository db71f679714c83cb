package core

import (
	"fmt"

	"fex/internal/table"
)

// registerBuiltinExperiments installs the experiments FEX supports
// out-of-the-box (Table I): performance/memory/variable-input experiments
// for the benchmark suites, throughput–latency and security experiments
// for the standalone applications.
func (fx *Fex) registerBuiltinExperiments() error {
	suites := []struct {
		name string
		desc string
	}{
		{"phoenix", "Phoenix MapReduce suite: I/O- and memory-intensive workloads"},
		{"splash", "SPLASH-3: parallel scientific kernels (Figure 6)"},
		{"parsec", "PARSEC: complex multithreaded programs"},
		{"micro", "microbenchmarks for debugging"},
	}
	for _, s := range suites {
		suiteName := s.name
		if err := fx.RegisterExperiment(&Experiment{
			Name:         suiteName,
			Description:  s.desc,
			Suite:        suiteName,
			Kind:         KindPerformance,
			DefaultTypes: []string{"gcc_native"},
			PlotKinds:    []string{"perf", "mem", "threads", "cache"},
			NewRunner: func(fx *Fex) (Runner, error) {
				return &BenchRunner{Suite: suiteName}, nil
			},
			Collect: GenericCollect,
			Plot:    suitePlot(suiteName),
		}); err != nil {
			return err
		}
	}

	// Variable-input experiments (the paper lists them for Phoenix,
	// PARSEC, and SPEC; SPEC is proprietary and excluded, as in the
	// open-source FEX release).
	for _, suiteName := range []string{"phoenix", "parsec"} {
		suiteName := suiteName
		if err := fx.RegisterExperiment(&Experiment{
			Name:         suiteName + "_var_input",
			Description:  suiteName + " with varying input sizes",
			Suite:        suiteName,
			Kind:         KindVariableInput,
			DefaultTypes: []string{"gcc_native"},
			PlotKinds:    []string{"perf"},
			NewRunner: func(fx *Fex) (Runner, error) {
				return &VariableInputRunner{Suite: suiteName}, nil
			},
			Collect: GenericCollect,
			Plot: func(tbl *table.Table, kind string) (string, error) {
				if kind != "perf" && kind != "" {
					return "", fmt.Errorf("core: unknown plot %q", kind)
				}
				return NormalizedPerfPlot(tbl, "cycles", BaselineType,
					suiteName+" runtime across input sizes")
			},
		}); err != nil {
			return err
		}
	}

	if err := fx.registerNetworkExperiments(); err != nil {
		return err
	}
	return fx.registerSecurityExperiment()
}

// suitePlot dispatches a suite experiment's plot kinds.
func suitePlot(suiteName string) func(tbl *table.Table, kind string) (string, error) {
	return func(tbl *table.Table, kind string) (string, error) {
		switch kind {
		case "perf", "":
			return NormalizedPerfPlot(tbl, "cycles", BaselineType,
				suiteName+": normalized runtime")
		case "mem":
			return MemoryOverheadPlot(tbl, BaselineType,
				suiteName+": memory overhead")
		case "threads":
			return ThreadScalingPlot(tbl, "cycles",
				suiteName+": multithreading scaling")
		case "cache":
			return CacheMissPlot(tbl, suiteName+": cache misses by level")
		default:
			return "", fmt.Errorf("core: unknown plot kind %q (have perf, mem, threads, cache)", kind)
		}
	}
}
