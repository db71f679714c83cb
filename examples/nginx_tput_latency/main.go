// Nginx_tput_latency reproduces Figure 7 of the paper: the Nginx
// throughput–latency comparison between GCC and Clang builds, with remote
// clients fetching a 2K static web page — the §IV-B case study
// ("fex.py run -n nginx -t gcc_native clang_native").
//
// The experiment starts the web server under each build type, drives an
// open-loop offered-rate sweep from a (simulated-remote) client host, and
// plots latency against achieved throughput. Output: a sweep table and
// nginx_fig7.svg.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"fex/internal/core"
	"fex/internal/runlog"
	"fex/internal/table"
	"fex/internal/testutil"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "nginx_tput_latency:", err)
		os.Exit(1)
	}
}

// run executes the Figure 7 case study. The sweep drives a live load
// generator, so the measured values are genuinely nondeterministic;
// deterministic mode only pins the log-header clock, and the golden
// end-to-end test normalizes the volatile metric values before
// comparing (the sweep STRUCTURE — rates, rows, columns — is stable).
func run(deterministic bool) error {
	opts := core.Options{}
	if deterministic {
		opts.Now = testutil.Clock()
	}
	fx, err := core.New(opts)
	if err != nil {
		return err
	}
	// Setup stage: compilers plus the Nginx sources (installed from the
	// repository, not shipped — the paper pins 1.4.1, the CVE-fixed one).
	for _, artifact := range []string{"gcc-6.1", "clang-3.8.0", "nginx-1.4.1"} {
		if _, err := fx.Install(artifact); err != nil {
			return err
		}
	}

	// Register a tuned variant of the Nginx experiment: the same runner
	// as the built-in one with an explicit sweep (this mirrors the 89-LoC
	// custom run.py of §IV-B).
	err = fx.RegisterExperiment(&core.Experiment{
		Name:        "nginx_fig7",
		Description: "Figure 7: nginx throughput-latency sweep",
		Kind:        core.KindThroughputLatency,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.ServerBenchRunner{
				App:      "nginx",
				Duration: 500 * time.Millisecond,
				Workers:  4,
				// Rates left empty: the runner probes server capacity and
				// sweeps fractions of it, so the saturation knee is visible
				// on any host.
			}, nil
		},
		Collect: func(lg *runlog.Log) (*table.Table, error) { return core.NetCollect(lg) },
		Plot: func(tbl *table.Table, kind string) (string, error) {
			return core.ThroughputLatencyPlot(tbl, "nginx: throughput vs latency (Figure 7)")
		},
	})
	if err != nil {
		return err
	}

	report, err := fx.Run(context.Background(), core.Config{
		Experiment: "nginx_fig7",
		BuildTypes: []string{"gcc_native", "clang_native"},
	})
	if err != nil {
		return err
	}
	fmt.Println("Figure 7 — throughput vs latency sweep")
	fmt.Println(report.Table.String())
	if err := testutil.ExportReport(fx, report, "nginx_fig7"); err != nil {
		return err
	}

	svg, err := fx.Plot("nginx_fig7", "tput-latency")
	if err != nil {
		return err
	}
	if err := os.WriteFile("nginx_fig7.svg", []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote nginx_fig7.svg")

	// Report the saturation knees: Clang should saturate earlier.
	tputs, err := report.Table.Floats("throughput")
	if err != nil {
		return err
	}
	types, err := report.Table.Strings("type")
	if err != nil {
		return err
	}
	peak := map[string]float64{}
	for i := range tputs {
		if tputs[i] > peak[types[i]] {
			peak[types[i]] = tputs[i]
		}
	}
	fmt.Printf("peak throughput: gcc=%.0f req/s, clang=%.0f req/s\n",
		peak["gcc_native"], peak["clang_native"])
	return nil
}
