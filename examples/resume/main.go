// Resume demonstrates the persistent result store: resumable runs
// (-resume) and incremental evaluation.
//
// The walkthrough:
//
//  1. run the micro suite cold with -r 5, storing every cell;
//  2. run the same experiment again with -resume — every cell replays
//     from the store, executing zero measured repetitions, and the stored
//     log and CSV stay byte-identical to the cold run;
//  3. extend the experiment with an extra benchmark under -resume — only
//     the new cells are measured (incremental evaluation);
//  4. clean the store and show the next -resume run measures cold again.
//
// A registered hook counts real benchmark executions, making the "zero
// repetitions on resume" claim observable.
package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"

	"fex/internal/core"
	"fex/internal/measure"
	"fex/internal/testutil"
	"fex/internal/workload"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		os.Exit(1)
	}
}

// run executes the walkthrough. The metrics are already modeled
// (deterministic); deterministic mode — the golden end-to-end test —
// additionally pins the log-header clock so the exported artifacts are
// byte-stable.
func run(deterministic bool) error {
	opts := core.Options{}
	if deterministic {
		opts.Now = testutil.Clock()
	}
	fx, err := core.New(opts)
	if err != nil {
		return err
	}
	if _, err := fx.Install("gcc-6.1"); err != nil {
		return err
	}

	// Count measured repetitions through a per-run hook: the default
	// action runs unchanged, the counter just watches it.
	var executed atomic.Int64
	if err := fx.RegisterExperiment(&core.Experiment{
		Name:        "micro_counted",
		Description: "micro suite with counted executions",
		Suite:       "micro",
		Kind:        core.KindPerformance,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.BenchRunner{Suite: "micro", Hooks: core.Hooks{
				PerRunAction: func(rc *core.RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
					executed.Add(1)
					return core.DefaultPerRun(rc, buildType, w, threads)
				},
			}}, nil
		},
		Collect: core.GenericCollect,
	}); err != nil {
		return err
	}

	cfg := core.Config{
		Experiment: "micro_counted",
		BuildTypes: []string{"gcc_native", "gcc_asan"},
		Benchmarks: []string{"array_read", "branch_heavy"},
		Reps:       5,
		Input:      workload.SizeTest,
	}

	// --- 1. cold run ----------------------------------------------------
	fmt.Println("== cold run with -r 5")
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	coldLog, err := fx.ReadResult(report.LogPath)
	if err != nil {
		return err
	}
	fmt.Printf("   %d measurements from %d executed repetitions\n", report.Measurements, executed.Load())
	if err := testutil.ExportReport(fx, report, "cold"); err != nil {
		return err
	}

	// --- 2. warm -resume run --------------------------------------------
	fmt.Println("== warm rerun with -resume")
	executed.Store(0)
	warm := cfg
	warm.Resume = true
	report, err = fx.Run(context.Background(), warm)
	if err != nil {
		return err
	}
	warmLog, err := fx.ReadResult(report.LogPath)
	if err != nil {
		return err
	}
	fmt.Printf("   %d measurements from %d executed repetitions\n", report.Measurements, executed.Load())
	if executed.Load() != 0 {
		return fmt.Errorf("resume executed %d repetitions, want 0", executed.Load())
	}
	if string(warmLog) != string(coldLog) {
		return fmt.Errorf("resumed log differs from cold run")
	}
	fmt.Println("   zero repetitions executed; log byte-identical to the cold run")
	if err := testutil.ExportReport(fx, report, "warm"); err != nil {
		return err
	}

	// --- 3. incremental extension ---------------------------------------
	fmt.Println("== extend the experiment under -resume (add alloc_churn)")
	executed.Store(0)
	extended := warm
	extended.Benchmarks = append(append([]string{}, warm.Benchmarks...), "alloc_churn")
	report, err = fx.Run(context.Background(), extended)
	if err != nil {
		return err
	}
	fmt.Printf("   %d measurements, only %d newly executed repetitions (the new benchmark's cells)\n",
		report.Measurements, executed.Load())
	if executed.Load() == 0 {
		return fmt.Errorf("extension measured nothing; expected the new cells to run")
	}
	if err := testutil.ExportReport(fx, report, "extended"); err != nil {
		return err
	}

	// --- 4. fex clean -----------------------------------------------------
	stats, err := fx.ResultStore().Stats()
	if err != nil {
		return err
	}
	fmt.Printf("== store holds %d cells (%d bytes); cleaning\n", stats.Records, stats.Bytes)
	if err := fx.CleanStore(); err != nil {
		return err
	}
	executed.Store(0)
	if _, err := fx.Run(context.Background(), warm); err != nil {
		return err
	}
	fmt.Printf("   after clean, -resume measured cold again: %d executed repetitions\n", executed.Load())
	if executed.Load() == 0 {
		return fmt.Errorf("cleaned store still replayed")
	}
	fmt.Println("resume complete")
	return nil
}
