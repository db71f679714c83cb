package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fex/internal/measure"
	"fex/internal/workload"
)

// This file tests the reentrancy contract of Fex.Run: context
// cancellation observed by every execution tier, durable partial progress
// (completed cells stay in the result store and are replayed by a later
// -resume run), and the per-run artifact namespace under RunsDir.

// TestCancelAbortsEveryTier drives each execution backend into a
// deterministic cancellation: the first cell to execute cancels the run's
// context, every cell blocks until it observes the cancellation, and the
// run must abort with an error that unwraps to context.Canceled — no
// timeouts, no goroutine left measuring.
func TestCancelAbortsEveryTier(t *testing.T) {
	for _, mode := range runModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			hooks := deterministicHooks(0)
			hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
				once.Do(cancel)
				select {
				case <-rc.Context().Done():
					return nil, rc.Context().Err()
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("cell %s/%s never observed the cancellation", w.Name(), buildType)
				}
			}
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "cancel_"+mode.name, hooks)
			cfg := Config{
				Experiment: "cancel_" + mode.name,
				BuildTypes: []string{"gcc_native", "clang_native"},
				Benchmarks: []string{"fft", "lu"},
				Input:      workload.SizeTest,
			}
			mode.set(&cfg)
			_, err := fx.Run(ctx, cfg)
			if err == nil {
				t.Fatal("cancelled run reported success")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run error %v does not unwrap to context.Canceled", err)
			}
		})
	}
}

// TestCancelPreservesCompletedCells pins the durability half of the
// contract on the serial tier, where the cut point is exact: cancelling
// after the first cell settles aborts the run with context.Canceled,
// persists exactly that cell in the result store, and a subsequent
// -resume run replays it instead of re-measuring.
func TestCancelPreservesCompletedCells(t *testing.T) {
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "cancel_partial", deterministicHooks(0))
	cfg := Config{
		Experiment: "cancel_partial",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := fx.RunWithHooks(ctx, cfg, RunHooks{
		Progress: func(ev ProgressEvent) {
			if ev.Stage == "cell" {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v does not unwrap to context.Canceled", err)
	}
	stats, err := fx.ResultStore().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 {
		t.Fatalf("store holds %d cells after first-cell cancel, want exactly 1", stats.Records)
	}

	// The persisted cell must replay on resume; the rerun completes and
	// re-measures only the three missing cells.
	resume := cfg
	resume.Resume = true
	var final ProgressEvent
	report, err := fx.RunWithHooks(context.Background(), resume, RunHooks{
		Progress: func(ev ProgressEvent) {
			if ev.Stage == "plan" {
				final = ev
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Replayed != 1 {
		t.Errorf("resume after cancel replayed %d cells, want 1", final.Replayed)
	}
	if report.Measurements != 4 {
		t.Errorf("resumed run collected %d measurements, want 4", report.Measurements)
	}
}

// TestRunPreCancelledContext checks the cheapest path: a context already
// cancelled at submission never starts building or measuring.
func TestRunPreCancelledContext(t *testing.T) {
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "cancel_pre", deterministicHooks(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := fx.Run(ctx, Config{
		Experiment: "cancel_pre",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := fx.BuildSystem().Builds(); n != 0 {
		t.Errorf("pre-cancelled run performed %d builds", n)
	}
}

// TestRunScopedArtifacts checks the collision-free artifact namespace:
// every run writes its log and CSV under RunsDir keyed by its run ID,
// byte-identical to the legacy "latest" paths; distinct runs get distinct
// IDs and both copies survive.
func TestRunScopedArtifacts(t *testing.T) {
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "run_scoped", deterministicHooks(0))
	cfg := Config{
		Experiment: "run_scoped",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
	}
	first, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{RunID: "custom-id.1"})
	if err != nil {
		t.Fatal(err)
	}
	if first.RunID == second.RunID {
		t.Fatalf("both runs got run ID %q", first.RunID)
	}
	if second.RunID != "custom-id.1" {
		t.Fatalf("caller-supplied run ID not honoured: got %q", second.RunID)
	}
	if !strings.HasPrefix(second.RunLogPath, RunsDir+"/custom-id.1/") {
		t.Fatalf("run-scoped log path %q not under the run's directory", second.RunLogPath)
	}
	for _, report := range []*RunReport{first, second} {
		legacy, err := fx.ReadResult(report.LogPath)
		if err != nil {
			t.Fatal(err)
		}
		scoped, err := fx.ReadResult(report.RunLogPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(legacy) != string(scoped) {
			t.Errorf("run %s: run-scoped log differs from the latest view", report.RunID)
		}
		if _, err := fx.ReadResult(report.RunCSVPath); err != nil {
			t.Errorf("run %s: run-scoped CSV unreadable: %v", report.RunID, err)
		}
	}
	// Both run-scoped logs persist side by side — the legacy path holds
	// only the latest.
	if _, err := fx.ReadResult(first.RunLogPath); err != nil {
		t.Errorf("first run's scoped log gone after second run: %v", err)
	}

	for _, bad := range []string{"..", ".hidden", "a/b", "x y", ""} {
		if bad == "" {
			continue // empty means framework-assigned
		}
		if _, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{RunID: bad}); err == nil {
			t.Errorf("run ID %q accepted, want rejection", bad)
		}
	}
}
