package core

import (
	"errors"
	"fmt"

	"fex/internal/runlog"
	"fex/internal/table"
)

// NetCollect is the specialized collect stage for throughput–latency
// experiments (the 14-LoC collect.py of §IV-B): one row per sweep point.
func NetCollect(lg *runlog.Log) (*table.Table, error) {
	if len(lg.Measurements) == 0 {
		return nil, errors.New("core: log contains no measurements")
	}
	b, err := table.NewBuilder(
		[]string{"bench", "type", "offered_rate", "throughput", "latency_ms", "p95_ms", "p99_ms", "errors"},
		[]table.Kind{table.String, table.String, table.Float, table.Float, table.Float, table.Float, table.Float, table.Float},
	)
	if err != nil {
		return nil, err
	}
	for _, m := range lg.Measurements {
		if err := b.Append(
			m.Benchmark, m.BuildType,
			m.Values.Value("offered_rate"), m.Values.Value("throughput"),
			m.Values.Value("latency_ms"), m.Values.Value("p95_ms"), m.Values.Value("p99_ms"),
			m.Values.Value("errors"),
		); err != nil {
			return nil, err
		}
	}
	return b.Table()
}

// registerNetworkExperiments installs the nginx, apache, and memcached
// throughput–latency experiments.
func (fx *Fex) registerNetworkExperiments() error {
	for _, app := range []string{"nginx", "apache", "memcached"} {
		app := app
		if err := fx.RegisterExperiment(&Experiment{
			Name:         app,
			Description:  app + " throughput-latency experiment (Figure 7 family)",
			Kind:         KindThroughputLatency,
			DefaultTypes: []string{"gcc_native", "clang_native"},
			PlotKinds:    []string{"tput-latency"},
			NewRunner: func(fx *Fex) (Runner, error) {
				return &ServerBenchRunner{App: app}, nil
			},
			Collect: NetCollect,
			Plot: func(tbl *table.Table, kind string) (string, error) {
				if kind != "tput-latency" && kind != "" {
					return "", fmt.Errorf("core: unknown plot %q", kind)
				}
				return ThroughputLatencyPlot(tbl, app+": throughput vs latency")
			},
		}); err != nil {
			return err
		}
	}
	return nil
}
