package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fex/internal/runlog"
	"fex/internal/vfs"
	"fex/internal/workload"
)

// This file tests the run planner (plan.go): in-run cell deduplication,
// warm-build skipping, build/measurement pipelining, and the build-system
// override propagation of the parallel tier. The byte-identity half of
// the contract is carried by the golden determinism suites
// (cluster_test.go, resume_test.go), whose experiment matrix includes a
// duplicated sweep; here the focus is on what the planner *avoids doing*.

// TestPlanDedupDuplicatedSweep pins the dedup semantics on one explicit
// configuration: a benchmark listed twice in -b measures once, replays
// into both positions, and produces the exact bytes of an undeduped
// (-no-dedup) run of the same configuration.
func TestPlanDedupDuplicatedSweep(t *testing.T) {
	cfg := Config{
		Experiment: "dup_sweep",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "fft"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	var dedupBuilds, dedupReps, rawBuilds, rawReps atomic.Int64

	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "dup_sweep", countingHooks(&dedupBuilds, &dedupReps))
	gotLog, gotCSV := runOn(t, fx, cfg)

	raw := cfg
	raw.NoDedup = true
	rfx := newSchedFex(t)
	registerSchedExperiment(t, rfx, "dup_sweep", countingHooks(&rawBuilds, &rawReps))
	wantLog, wantCSV := runOn(t, rfx, raw)

	if gotLog != wantLog {
		t.Errorf("deduped log differs from -no-dedup run:\n--- no-dedup ---\n%s\n--- deduped ---\n%s", wantLog, gotLog)
	}
	if gotCSV != wantCSV {
		t.Errorf("deduped CSV differs from -no-dedup run:\n--- no-dedup ---\n%s\n--- deduped ---\n%s", wantCSV, gotCSV)
	}
	// 3 positions per type, 2 distinct: dedup measures 2 cells per type.
	if want := int64(2 * 2); dedupBuilds.Load() != want {
		t.Errorf("deduped run executed %d per-benchmark actions, want %d", dedupBuilds.Load(), want)
	}
	if want := int64(3 * 2); rawBuilds.Load() != want {
		t.Errorf("-no-dedup run executed %d per-benchmark actions, want %d", rawBuilds.Load(), want)
	}
	if dedupReps.Load() >= rawReps.Load() {
		t.Errorf("dedup saved no repetitions: %d measured vs %d undeduped", dedupReps.Load(), rawReps.Load())
	}
}

// TestPlanDedupProperty is the randomized half of the dedup contract:
// for arbitrary benchmark multisets (duplicates included) and any
// execution tier, a deduped run's merged log and CSV are byte-identical
// to the undeduped run of the same configuration. Runs under -race in CI
// like the rest of the determinism harness.
func TestPlanDedupProperty(t *testing.T) {
	pool := []string{"fft", "lu", "radix", "ocean"}
	iter := 0
	prop := func(picks [4]uint8, repsRaw uint8, modeRaw uint8) bool {
		iter++
		benches := make([]string, 0, len(picks))
		for _, p := range picks {
			benches = append(benches, pool[int(p)%len(pool)])
		}
		mode := runModes[int(modeRaw)%len(runModes)]
		cfg := Config{
			Experiment: fmt.Sprintf("dedup_prop_%d", iter),
			BuildTypes: []string{"gcc_native", "clang_native"},
			Benchmarks: benches,
			Threads:    []int{1, 2},
			Reps:       int(repsRaw)%3 + 1,
			Input:      workload.SizeTest,
			ModelTime:  true,
		}
		mode.set(&cfg)

		fx := newSchedFex(t)
		registerSchedExperiment(t, fx, cfg.Experiment, deterministicHooks(0))
		gotLog, gotCSV := runOn(t, fx, cfg)

		raw := cfg
		raw.NoDedup = true
		rfx := newSchedFex(t)
		registerSchedExperiment(t, rfx, cfg.Experiment, deterministicHooks(0))
		wantLog, wantCSV := runOn(t, rfx, raw)

		if gotLog != wantLog || gotCSV != wantCSV {
			t.Logf("config %s (%s): deduped output differs from -no-dedup:\n--- no-dedup log ---\n%s\n--- deduped log ---\n%s",
				cfg.String(), mode.name, wantLog, gotLog)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCellsPropagatesBuildOverride is the regression test for the
// parallel tier dropping RunContext.build: cells running under -jobs with
// an overridden build system must compile against the override (as the
// serial tier and the cluster handler always did), never against the
// coordinator's.
func TestRunCellsPropagatesBuildOverride(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	sentinel, err := newBenchBuildSystem(vfs.New(), nil, fx.Registry())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Experiment: "override",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1},
		Reps:       1,
		Input:      workload.SizeTest,
		Jobs:       2,
		ModelTime:  true,
	}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rc := &RunContext{
		Fex:      fx,
		Config:   cfg,
		Env:      fx.environmentFor(cfg.BuildTypes),
		Log:      runlog.NewWriter(&buf),
		build:    sentinel,
		identity: fx.newBuildIdentity(cfg),
	}
	r := &BenchRunner{Suite: "splash"}
	if err := r.Run(rc); err != nil {
		t.Fatal(err)
	}
	if sentinel.Builds() == 0 {
		t.Error("no cell reached the overridden build system under -jobs 2")
	}
	if n := fx.BuildSystem().Builds(); n != 0 {
		t.Errorf("cells performed %d builds on the coordinator build system despite the override", n)
	}
}

// TestResumeFullyWarmSkipsBuilds pins the planner's build elision on real
// experiments: a 100%-warm resume — in every tier — performs zero
// buildsys.Build calls and still stores bytes identical to the cold run.
func TestResumeFullyWarmSkipsBuilds(t *testing.T) {
	cfg := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1, 2},
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	for _, mode := range runModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			fx := newSchedFex(t)
			installAll(t, fx, "gcc-6.1", "clang-3.8.0")
			modeCfg := cfg
			mode.set(&modeCfg)
			coldLog, coldCSV := runOn(t, fx, modeCfg)

			before := fx.BuildSystem().Builds()
			afterCold := fx.BuildSystem().CachedArtifacts()
			warm := modeCfg
			warm.Resume = true
			warmLog, warmCSV := runOn(t, fx, warm)
			if n := fx.BuildSystem().Builds() - before; n != 0 {
				t.Errorf("%s: fully-warm resume performed %d builds, want 0", mode.name, n)
			}
			// Cross-experiment build sharing keeps the cold run's artifacts
			// warm (same config hash, so the pre-run CleanBuild is elided);
			// a fully-warm resume must neither add nor rebuild any.
			if n := fx.BuildSystem().CachedArtifacts(); n != afterCold {
				t.Errorf("%s: fully-warm resume changed the artifact cache: %d cached, want %d (shared from the cold run)", mode.name, n, afterCold)
			}
			if warmLog != coldLog {
				t.Errorf("%s: warm log differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", mode.name, coldLog, warmLog)
			}
			if warmCSV != coldCSV {
				t.Errorf("%s: warm CSV differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", mode.name, coldCSV, warmCSV)
			}
		})
	}
}

// TestPlanSkipsWarmTypeBuilds covers the partial case: when only some
// build types' cells are fully satisfied by the store, exactly the cold
// types run their per-type action — in every tier — and the output is
// byte-identical to a fully cold run of the same configuration.
func TestPlanSkipsWarmTypeBuilds(t *testing.T) {
	warmTypeCfg := Config{
		Experiment: "half_warm",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1},
		Reps:       2,
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	fullCfg := warmTypeCfg
	fullCfg.BuildTypes = []string{"gcc_native", "clang_native"}

	for _, mode := range runModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			// Reference: fully cold serial run of the two-type config.
			wantLog, wantCSV := serialReference(t, "half_warm", deterministicHooks(0), fullCfg)

			var mu sync.Mutex
			var typesBuilt []string
			hooks := deterministicHooks(0)
			hooks.PerTypeAction = func(rc *RunContext, buildType string) error {
				mu.Lock()
				typesBuilt = append(typesBuilt, buildType)
				mu.Unlock()
				return nil
			}
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "half_warm", hooks)

			// Cold single-type run fills the store for gcc_native only.
			seed := warmTypeCfg
			mode.set(&seed)
			runOn(t, fx, seed)

			mu.Lock()
			typesBuilt = nil
			mu.Unlock()

			resume := fullCfg
			resume.Resume = true
			mode.set(&resume)
			gotLog, gotCSV := runOn(t, fx, resume)

			mu.Lock()
			built := append([]string(nil), typesBuilt...)
			mu.Unlock()
			if len(built) != 1 || built[0] != "clang_native" {
				t.Errorf("%s: per-type actions ran for %v, want [clang_native] only (gcc_native cells all replay)", mode.name, built)
			}
			if gotLog != wantLog {
				t.Errorf("%s: half-warm log differs from cold serial:\n--- cold ---\n%s\n--- half-warm ---\n%s", mode.name, wantLog, gotLog)
			}
			if gotCSV != wantCSV {
				t.Errorf("%s: half-warm CSV differs from cold serial:\n--- cold ---\n%s\n--- half-warm ---\n%s", mode.name, wantCSV, gotCSV)
			}
		})
	}
}

// TestParallelPipelinesBuildsWithMeasurement asserts the DAG shape: in
// the parallel tiers, the first type's cells start measuring before the
// second type's build begins — the second PerTypeAction blocks until a
// cell of the first type has entered its per-benchmark action. Under the
// old all-builds-first schedule this deadlocks (and the timeout converts
// the deadlock into a failure).
func TestParallelPipelinesBuildsWithMeasurement(t *testing.T) {
	cfg := Config{
		Experiment: "pipelined",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1},
		Reps:       2,
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	wantLog, wantCSV := serialReference(t, "pipelined", deterministicHooks(0), cfg)
	for _, mode := range runModes[1:] { // parallel, cluster
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			firstMeasured := make(chan struct{})
			var once sync.Once
			hooks := deterministicHooks(0)
			baseBench := hooks.PerBenchmarkAction
			hooks.PerBenchmarkAction = func(rc *RunContext, buildType string, w workload.Workload) error {
				once.Do(func() { close(firstMeasured) })
				return baseBench(rc, buildType, w)
			}
			hooks.PerTypeAction = func(rc *RunContext, buildType string) error {
				if buildType == "clang_native" {
					select {
					case <-firstMeasured:
					case <-time.After(10 * time.Second):
						return fmt.Errorf("clang_native build ran before any gcc_native cell started measuring: builds are not pipelined")
					}
				}
				return nil
			}
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "pipelined", hooks)
			modeCfg := cfg
			mode.set(&modeCfg)
			gotLog, gotCSV := runOn(t, fx, modeCfg)
			if gotLog != wantLog {
				t.Errorf("%s: pipelined log differs from serial:\n--- serial ---\n%s\n--- %s ---\n%s", mode.name, wantLog, mode.name, gotLog)
			}
			if gotCSV != wantCSV {
				t.Errorf("%s: pipelined CSV differs from serial:\n--- serial ---\n%s\n--- %s ---\n%s", mode.name, wantCSV, mode.name, gotCSV)
			}
		})
	}
}

// TestPlanSummaryVerbose checks the -v plan line: cell counts, replay and
// dedup tallies, and the build elision all surface before execution.
func TestPlanSummaryVerbose(t *testing.T) {
	var vbuf strings.Builder
	fx, err := New(Options{Now: fixedNow, Verbose: &vbuf})
	if err != nil {
		t.Fatal(err)
	}
	registerSchedExperiment(t, fx, "plan_verbose", deterministicHooks(0))
	cfg := Config{
		Experiment: "plan_verbose",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "fft", "lu"},
		Threads:    []int{1},
		Reps:       1,
		Input:      workload.SizeTest,
		ModelTime:  true,
		Verbose:    true,
	}
	if _, err := fx.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	out := vbuf.String()
	if !strings.Contains(out, "== plan: 6 cells: 4 execute, 0 replayed, 2 deduped; builds: 2 of 2 types") {
		t.Errorf("cold run: plan summary missing or wrong:\n%s", out)
	}

	vbuf.Reset()
	warm := cfg
	warm.Resume = true
	if _, err := fx.Run(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	out = vbuf.String()
	if !strings.Contains(out, "== plan: 6 cells: 0 execute, 6 replayed, 0 deduped; builds: 0 of 2 types") {
		t.Errorf("warm run: plan summary missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "all cells satisfied, build skipped") {
		t.Errorf("warm run: no build-skip line in verbose output:\n%s", out)
	}
}
