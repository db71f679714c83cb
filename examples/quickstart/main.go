// Quickstart walks the paper's end-user workflow end to end (§III):
//
//  1. boot the framework (container + registries),
//  2. run the setup stage ("fex install -n gcc-6.1"),
//  3. run an experiment ("fex run -n phoenix -t gcc_native gcc_asan"),
//  4. inspect the collected CSV table,
//  5. render a plot,
//
// and then shows the extension workflow: registering a custom build type
// makefile and a custom experiment, exactly like adding gcc_asan.mk and an
// experiments/<name>/run.py in the paper.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"fex/internal/buildsys"
	"fex/internal/core"
	"fex/internal/plot"
	"fex/internal/runlog"
	"fex/internal/table"
	"fex/internal/testutil"
	"fex/internal/workload"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run executes the walkthrough. In deterministic mode — how the golden
// end-to-end test runs it — the clock is pinned, so every exported
// artifact is byte-stable (wall time is always modeled).
func run(deterministic bool) error {
	opts := core.Options{Verbose: os.Stdout}
	if deterministic {
		opts.Verbose = io.Discard
		opts.Now = testutil.Clock()
	}
	fx, err := core.New(opts)
	if err != nil {
		return err
	}

	// --- setup stage -----------------------------------------------------
	// The image ships only sources; compilers are installed with pinned
	// versions, exactly like `fex.py install -n gcc-6.1`.
	fmt.Println("== setup stage")
	if _, err := fx.Install("gcc-6.1"); err != nil {
		return err
	}

	// --- run stage -------------------------------------------------------
	// fex run -n phoenix -t gcc_native gcc_asan -b histogram word_count -i test -r 2
	fmt.Println("== run stage")
	report, err := fx.Run(context.Background(), core.Config{
		Experiment: "phoenix",
		BuildTypes: []string{"gcc_native", "gcc_asan"},
		Benchmarks: []string{"histogram", "word_count"},
		Input:      workload.SizeTest,
		Reps:       2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("collected %d measurements into %s\n\n", report.Measurements, report.CSVPath)
	fmt.Println(report.Table.String())
	if err := testutil.ExportReport(fx, report, "phoenix"); err != nil {
		return err
	}

	// --- plot stage ------------------------------------------------------
	svg, err := fx.Plot("phoenix", "perf")
	if err != nil {
		return err
	}
	if err := os.WriteFile("phoenix_perf.svg", []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote phoenix_perf.svg (ASan overhead, normalized to native GCC)")

	// ASCII rendition for terminals.
	cycles, err := report.Table.Floats("cycles")
	if err != nil {
		return err
	}
	benches, err := report.Table.Strings("bench")
	if err != nil {
		return err
	}
	types, err := report.Table.Strings("type")
	if err != nil {
		return err
	}
	labels := make([]string, len(benches))
	for i := range benches {
		labels[i] = benches[i] + " [" + types[i] + "]"
	}
	bp := plot.BarPlot{Categories: labels, Values: cycles, Opts: plot.Options{Title: "modeled cycles"}}
	ascii, err := bp.RenderASCII(78)
	if err != nil {
		return err
	}
	fmt.Println(ascii)

	// --- extension workflow ---------------------------------------------
	// A user adds a new type-specific makefile (like gcc_asan.mk in the
	// paper) and a new experiment reusing the generic runner and collect.
	fmt.Println("== extension workflow: custom build type + experiment")
	err = fx.BuildSystem().AddMakefileText("gcc_hardened.mk", buildsys.LayerExperiment, `
include gcc_native.mk
CFLAGS += -fstack-protector
CFLAGS += -D_FORTIFY_SOURCE=2
`)
	if err != nil {
		return err
	}
	err = fx.RegisterExperiment(&core.Experiment{
		Name:        "micro_hardened",
		Description: "microbenchmarks under a hardened build",
		Suite:       "micro",
		Kind:        core.KindPerformance,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.BenchRunner{Suite: "micro"}, nil
		},
		Collect: func(lg *runlog.Log) (*table.Table, error) { return core.GenericCollect(lg) },
	})
	if err != nil {
		return err
	}
	report2, err := fx.Run(context.Background(), core.Config{
		Experiment: "micro_hardened",
		BuildTypes: []string{"gcc_native", "gcc_hardened"},
		Benchmarks: []string{"array_read", "branch_heavy"},
		Input:      workload.SizeTest,
	})
	if err != nil {
		return err
	}
	fmt.Println(report2.Table.String())
	if err := testutil.ExportReport(fx, report2, "micro_hardened"); err != nil {
		return err
	}
	fmt.Println("quickstart complete")
	return nil
}
