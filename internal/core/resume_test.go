package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"fex/internal/buildsys"
	"fex/internal/measure"
	"fex/internal/store"
	"fex/internal/workload"
)

// This file extends the determinism harness to the result store
// (internal/store) and -resume: a warm resumed run — in every execution
// tier, cold store filled by any tier — must execute zero measured
// repetitions yet store a log and CSV byte-identical to a cold serial
// run's. Like cluster_test.go, everything here runs under -race in CI.

// runOn executes cfg on an existing framework (so the result store
// persists between the cold and warm run) and returns the stored log and
// CSV bytes.
func runOn(t *testing.T, fx *Fex, cfg Config) (string, string) {
	t.Helper()
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.String(), err)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(lg), string(csv)
}

// TestResumeDeterminismBuiltinExperiments is the warm half of the golden
// suite: for every cell-based builtin experiment and every execution tier,
// a cold run followed by a warm -resume run on the same framework must
// leave the log and CSV byte-identical to a cold *serial* run on a fresh
// framework — replay is invisible in the experiment record.
func TestResumeDeterminismBuiltinExperiments(t *testing.T) {
	for _, tc := range determinismExperiments {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serialCfg := tc.cfg
			wantLog, wantCSV := runOnce(t, serialCfg, tc.installs)
			for _, mode := range runModes {
				cfg := tc.cfg
				mode.set(&cfg)
				fx := newSchedFex(t)
				installAll(t, fx, tc.installs...)
				runOn(t, fx, cfg) // cold: fills the store
				warm := cfg
				warm.Resume = true
				lg, csv := runOn(t, fx, warm)
				if lg != wantLog {
					t.Errorf("%s/%s: warm -resume log differs from cold serial:\n--- cold serial ---\n%s\n--- warm %s ---\n%s",
						tc.name, mode.name, wantLog, mode.name, lg)
				}
				if csv != wantCSV {
					t.Errorf("%s/%s: warm -resume CSV differs from cold serial:\n--- cold serial ---\n%s\n--- warm %s ---\n%s",
						tc.name, mode.name, wantCSV, mode.name, csv)
				}
			}
		})
	}
}

// countingHooks wraps deterministicHooks with atomic counters over the
// per-benchmark (build) and per-run (measure) actions — the evidence that
// a warm run executed zero of either.
func countingHooks(builds, reps *atomic.Int64) Hooks {
	hooks := deterministicHooks(0)
	baseBench := hooks.PerBenchmarkAction
	hooks.PerBenchmarkAction = func(rc *RunContext, buildType string, w workload.Workload) error {
		builds.Add(1)
		return baseBench(rc, buildType, w)
	}
	baseRun := hooks.PerRunAction
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		reps.Add(1)
		return baseRun(rc, buildType, w, threads, rep)
	}
	return hooks
}

// TestResumeExecutesZeroRepetitions is the acceptance test of the store:
// in every execution tier, a warm -resume rerun of an unchanged experiment
// executes zero per-benchmark actions and zero measured repetitions, yet
// reproduces the cold run's bytes exactly.
func TestResumeExecutesZeroRepetitions(t *testing.T) {
	cfg := Config{
		Experiment: "resume_zero",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	for _, mode := range runModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			var builds, reps atomic.Int64
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "resume_zero", countingHooks(&builds, &reps))
			modeCfg := cfg
			mode.set(&modeCfg)

			coldLog, coldCSV := runOn(t, fx, modeCfg)
			if builds.Load() == 0 || reps.Load() == 0 {
				t.Fatalf("cold run executed builds=%d reps=%d", builds.Load(), reps.Load())
			}
			builds.Store(0)
			reps.Store(0)

			warm := modeCfg
			warm.Resume = true
			warmLog, warmCSV := runOn(t, fx, warm)
			if b := builds.Load(); b != 0 {
				t.Errorf("warm -resume run executed %d per-benchmark actions, want 0", b)
			}
			if r := reps.Load(); r != 0 {
				t.Errorf("warm -resume run executed %d measured repetitions, want 0", r)
			}
			if warmLog != coldLog {
				t.Errorf("warm log differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldLog, warmLog)
			}
			if warmCSV != coldCSV {
				t.Errorf("warm CSV differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldCSV, warmCSV)
			}
		})
	}
}

// TestResumePartialRunExtends proves incremental evaluation: a cold run
// over a benchmark subset seeds the store; a warm -resume run over a
// superset measures only the new cells, and its output is byte-identical
// to a cold serial run of the full set.
func TestResumePartialRunExtends(t *testing.T) {
	subset := Config{
		Experiment: "resume_partial",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	full := subset
	full.Benchmarks = []string{"fft", "lu", "radix"}

	// Golden bytes: a cold serial run of the full set on a fresh framework.
	var refBuilds, refReps atomic.Int64
	ref := newSchedFex(t)
	registerSchedExperiment(t, ref, "resume_partial", countingHooks(&refBuilds, &refReps))
	wantLog, wantCSV := runOn(t, ref, full)

	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_partial", countingHooks(&builds, &reps))
	runOn(t, fx, subset)
	builds.Store(0)
	reps.Store(0)

	warm := full
	warm.Resume = true
	warm.Jobs = 4 // replay must compose with the parallel tier
	gotLog, gotCSV := runOn(t, fx, warm)
	// Only the two new cells (radix under each build type) execute: one
	// per-benchmark action and Reps repetitions each.
	if b := builds.Load(); b != 2 {
		t.Errorf("extending run executed %d per-benchmark actions, want 2", b)
	}
	if r := reps.Load(); r != 2*2 {
		t.Errorf("extending run executed %d repetitions, want 4", r)
	}
	if gotLog != wantLog {
		t.Errorf("extended log differs from cold serial full run:\n--- want ---\n%s\n--- got ---\n%s", wantLog, gotLog)
	}
	if gotCSV != wantCSV {
		t.Errorf("extended CSV differs from cold serial full run:\n--- want ---\n%s\n--- got ---\n%s", wantCSV, gotCSV)
	}
}

// TestResumeMissesOnConfigChange asserts the fingerprint discriminates:
// any change to the measurement context — threads, input class, reps
// count, tool, debug mode — must miss the store and re-measure.
func TestResumeMissesOnConfigChange(t *testing.T) {
	base := Config{
		Experiment: "resume_miss",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	changes := map[string]func(*Config){
		"threads": func(c *Config) { c.Threads = []int{1} },
		"reps":    func(c *Config) { c.Reps = 3 },
		"input":   func(c *Config) { c.Input = workload.SizeSmall },
		"tool":    func(c *Config) { c.Tool = "time" },
		"debug":   func(c *Config) { c.Debug = true },
	}
	for name, change := range changes {
		name, change := name, change
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var builds, reps atomic.Int64
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "resume_miss", countingHooks(&builds, &reps))
			runOn(t, fx, base)
			reps.Store(0)

			warm := base
			warm.Resume = true
			change(&warm)
			runOn(t, fx, warm)
			if reps.Load() == 0 {
				t.Errorf("changed %s still replayed from the store", name)
			}
		})
	}

	// The control: no change replays everything.
	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_miss", countingHooks(&builds, &reps))
	runOn(t, fx, base)
	reps.Store(0)
	warm := base
	warm.Resume = true
	runOn(t, fx, warm)
	if reps.Load() != 0 {
		t.Errorf("unchanged config re-measured %d repetitions", reps.Load())
	}
}

// TestResumeWithoutFlagDoesNotReplay asserts -resume is opt-in: the store
// fills on every run, but a plain rerun measures everything again.
func TestResumeWithoutFlagDoesNotReplay(t *testing.T) {
	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_optin", countingHooks(&builds, &reps))
	cfg := Config{
		Experiment: "resume_optin",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
	}
	runOn(t, fx, cfg)
	reps.Store(0)
	runOn(t, fx, cfg)
	if reps.Load() == 0 {
		t.Error("rerun without -resume replayed from the store")
	}
}

// TestResumeCorruptEntrySelfHeals tampers with every stored record after
// the cold run: the warm run must detect the damage, fall back to
// re-measuring, and still produce byte-identical output.
func TestResumeCorruptEntrySelfHeals(t *testing.T) {
	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_corrupt", countingHooks(&builds, &reps))
	cfg := Config{
		Experiment: "resume_corrupt",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	coldLog, coldCSV := runOn(t, fx, cfg)

	// Overwrite every store record with garbage.
	fsys, err := fx.vfsOf()
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys(t, fx)
	if len(keys) == 0 {
		t.Fatal("cold run stored nothing")
	}
	corrupted := 0
	for _, key := range keys {
		path := StoreDir + "/" + key[:2] + "/" + key
		if err := fsys.WriteFile(path, []byte("not a store record"), 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	reps.Store(0)

	warm := cfg
	warm.Resume = true
	warmLog, warmCSV := runOn(t, fx, warm)
	if reps.Load() == 0 {
		t.Error("corrupt store entries were replayed")
	}
	if warmLog != coldLog || warmCSV != coldCSV {
		t.Errorf("self-healed run differs from cold run (corrupted %d records)", corrupted)
	}
}

// TestResumeReplayedCellSurvivesStoredRecordValidation asserts a replayed
// record that parses but belongs to a different fingerprint (a planted
// collision) is rejected, not replayed.
func TestResumePlantedRecordRejected(t *testing.T) {
	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_planted", countingHooks(&builds, &reps))
	cfg := Config{
		Experiment: "resume_planted",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
	}
	runOn(t, fx, cfg)

	// Re-key the stored record under a doctored fingerprint file: keep the
	// payload but swap the embedded fingerprint's experiment, simulating a
	// content-address collision.
	fsys, err := fx.vfsOf()
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys(t, fx)
	if len(keys) != 1 {
		t.Fatalf("%d store records, want 1", len(keys))
	}
	path := StoreDir + "/" + keys[0][:2] + "/" + keys[0]
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(string(data), `F|experiment|"resume_planted"`, `F|experiment|"someone_else"`, 1)
	if doctored == string(data) {
		t.Fatal("fingerprint line not found in stored record")
	}
	if err := fsys.WriteFile(path, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	reps.Store(0)

	warm := cfg
	warm.Resume = true
	runOn(t, fx, warm)
	if reps.Load() == 0 {
		t.Error("planted record with mismatched fingerprint was replayed")
	}
}

// TestResumeCrossTier proves the store is tier-agnostic: cells measured
// cold by the cluster tier replay in a warm serial run, and vice versa.
func TestResumeCrossTier(t *testing.T) {
	cfg := Config{
		Experiment: "resume_crosstier",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	pairs := []struct {
		name       string
		cold, warm func(*Config)
	}{
		{"cluster_then_serial", func(c *Config) { c.Hosts = []string{"w1", "w2"} }, func(c *Config) {}},
		{"serial_then_cluster", func(c *Config) {}, func(c *Config) { c.Hosts = []string{"w1", "w2"} }},
		{"parallel_then_cluster", func(c *Config) { c.Jobs = 4 }, func(c *Config) { c.Hosts = []string{"w1", "w2"} }},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			t.Parallel()
			var builds, reps atomic.Int64
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "resume_crosstier", countingHooks(&builds, &reps))
			cold := cfg
			pair.cold(&cold)
			coldLog, _ := runOn(t, fx, cold)
			reps.Store(0)

			warm := cfg
			pair.warm(&warm)
			warm.Resume = true
			warmLog, _ := runOn(t, fx, warm)
			if reps.Load() != 0 {
				t.Errorf("warm run re-measured %d repetitions across tiers", reps.Load())
			}
			if warmLog != coldLog {
				t.Errorf("cross-tier warm log differs:\n--- cold ---\n%s\n--- warm ---\n%s", coldLog, warmLog)
			}
		})
	}
}

// TestCleanStoreForcesColdRun asserts fex clean's contract: after
// CleanStore a -resume run measures everything again.
func TestCleanStoreForcesColdRun(t *testing.T) {
	var builds, reps atomic.Int64
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "resume_clean", countingHooks(&builds, &reps))
	cfg := Config{
		Experiment: "resume_clean",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
	}
	runOn(t, fx, cfg)
	st, err := fx.ResultStore().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records == 0 {
		t.Fatal("cold run stored nothing")
	}
	if err := fx.CleanStore(); err != nil {
		t.Fatal(err)
	}
	reps.Store(0)
	warm := cfg
	warm.Resume = true
	runOn(t, fx, warm)
	if reps.Load() == 0 {
		t.Error("cleaned store still replayed")
	}
}

// planOf runs cfg on fx and returns its plan progress event: Total cells,
// of which Replayed came from the store and Deduped from the run itself.
func planOf(t *testing.T, fx *Fex, cfg Config) (ProgressEvent, *RunReport) {
	t.Helper()
	var plan ProgressEvent
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: func(ev ProgressEvent) {
		if ev.Stage == "plan" {
			plan = ev
		}
	}})
	if err != nil {
		t.Fatalf("%s: %v", cfg.String(), err)
	}
	return plan, report
}

// TestResumeRemeasuresEditedMakefile edits a build type's makefile between
// a cold run and a -resume rerun: the rerun must measure every cell again
// under the new flags and store the CSV of a cold run with the edited
// makefile, not replay the old flags' cells. A framework whose makefiles
// were never edited keeps its default cell keys, pinned here.
func TestResumeRemeasuresEditedMakefile(t *testing.T) {
	cfg := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "gcc_hardened"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	texts := []string{
		"include gcc_native.mk\nCFLAGS += -fstack-protector\n",
		"include gcc_native.mk\nCFLAGS += -fsanitize=address\nLDFLAGS += -fsanitize=address\n",
	}
	setMakefile := func(fx *Fex, text string) {
		t.Helper()
		if err := fx.BuildSystem().AddMakefileText("gcc_hardened.mk", buildsys.LayerExperiment, text); err != nil {
			t.Fatal(err)
		}
	}
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	setMakefile(fx, texts[0])
	_, oldCSV := runOn(t, fx, cfg)

	ref := newSchedFex(t)
	installAll(t, ref, "gcc-6.1")
	setMakefile(ref, texts[1])
	_, wantCSV := runOn(t, ref, cfg)
	if oldCSV == wantCSV {
		t.Fatal("the makefile edit did not change the measurements; the test cannot tell a stale replay")
	}

	setMakefile(fx, texts[1])
	warm := cfg
	warm.Resume = true
	plan, report := planOf(t, fx, warm)
	if plan.Replayed != 0 {
		t.Errorf("-resume after a makefile edit replayed %d of %d cells, want 0", plan.Replayed, plan.Total)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != wantCSV {
		t.Errorf("-resume CSV after a makefile edit differs from a cold run:\n--- cold ---\n%s\n--- resumed ---\n%s", wantCSV, csv)
	}
	// A second -resume rerun with the edit in place replays everything.
	if plan, _ := planOf(t, fx, warm); plan.Replayed != plan.Total {
		t.Errorf("unchanged makefile: replayed %d of %d cells", plan.Replayed, plan.Total)
	}

	// Default keys did not move: no makefile edited, no digest in Dims.
	plain := newSchedFex(t)
	installAll(t, plain, "gcc-6.1")
	runOn(t, plain, Config{Experiment: "splash", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest})
	keys := storeKeys(t, plain)
	const wantKey = "8a439bfc583bedf469072be6b89bbae4fb62187ae51869cc11d3b80f5ee5830a"
	if len(keys) != 1 || keys[0] != wantKey {
		t.Errorf("default cell keys %v, want [%s]", keys, wantKey)
	}
	// Nor did the keys of cells built from an edited makefile.
	setMakefile(plain, texts[1])
	runOn(t, plain, Config{Experiment: "splash", BuildTypes: []string{"gcc_hardened"},
		Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest})
	const wantEditedKey = "24887b150f14b5488bab76fbd9e7df583aeed0ab48ec7487ba12fc4289807201"
	if keys := storeKeys(t, plain); len(keys) != 2 || !slices.Contains(keys, wantEditedKey) {
		t.Errorf("cell keys after a makefile edit %v, want %s next to the default key", keys, wantEditedKey)
	}
}

// TestBuildIdentityConsumers changes one build identity input per row, on
// top of the rows before it, and checks that exactly the consumers it
// should follow it: debug mode moves the fingerprint's ConfigHash, the
// cell key, the build marker and the host image key; -no-memo moves none
// of them; an install moves only the image key; adding or editing a makefile moves the cell key,
// the marker and the image key, but not ConfigHash. Every row runs, and
// compaction keeps the records of every row.
func TestBuildIdentityConsumers(t *testing.T) {
	type consumers struct {
		configHash, cellKey, marker string
		image                       imageKey
	}
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	w, err := fx.Registry().Lookup("splash", "fft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Experiment: "splash", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest}
	observe := func(input string) consumers {
		t.Helper()
		runOn(t, fx, cfg)
		resolved, _, err := fx.ResolveConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id := fx.newBuildIdentity(resolved)
		image, err := fx.imageKey(id)
		if err != nil {
			t.Fatal(err)
		}
		run := runFingerprint(id, resolved)
		c := consumers{
			configHash: run.ConfigHash,
			cellKey:    store.NewCell(cellFingerprint(run, cell{buildType: "gcc_native", workload: w}, id)).Key(),
			marker:     fx.lastBuildHash,
			image:      image,
		}
		if !slices.Contains(storeKeys(t, fx), c.cellKey) {
			t.Errorf("%s: the run stored no cell under key %s", input, c.cellKey)
		}
		return c
	}
	setMakefile := func(text string) func() {
		return func() {
			if err := fx.BuildSystem().AddMakefileText("gcc_hardened.mk", buildsys.LayerExperiment, text); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := []struct {
		input                              string
		apply                              func()
		configHash, cellKey, marker, image bool
	}{
		{"-d", func() { cfg.Debug = true }, true, true, true, true},
		// Memoized and unmemoized runs record identical bytes (see
		// TestMemoDeterminism), so they share cells, marker and image.
		{"-no-memo", func() { cfg.NoMemo = true }, false, false, false, false},
		{"install clang", func() { installAll(t, fx, "clang-3.8.0") }, false, false, false, true},
		{"add gcc_hardened.mk", setMakefile("include gcc_native.mk\nCFLAGS += -fstack-protector\n"), false, true, true, true},
		{"edit gcc_hardened.mk", setMakefile("include gcc_native.mk\nCFLAGS += -fsanitize=address\n"), false, true, true, true},
	}
	prev := observe("defaults")
	keys := map[string]bool{prev.cellKey: true}
	for _, r := range rows {
		r.apply()
		got := observe(r.input)
		for _, c := range []struct {
			consumer      string
			want, changed bool
		}{
			{"ConfigHash", r.configHash, got.configHash != prev.configHash},
			{"cell key", r.cellKey, got.cellKey != prev.cellKey},
			{"build marker", r.marker, got.marker != prev.marker},
			{"image key", r.image, !got.image.names(prev.image)},
		} {
			if c.changed != c.want {
				t.Errorf("%s: %s changed = %t, want %t", r.input, c.consumer, c.changed, c.want)
			}
		}
		keys[got.cellKey] = true
		prev = got
	}
	if _, err := fx.CompactStore(); err != nil {
		t.Fatal(err)
	}
	kept := storeKeys(t, fx)
	for key := range keys {
		if !slices.Contains(kept, key) {
			t.Errorf("compaction dropped cell %s", key)
		}
	}
	if len(kept) != len(keys) {
		t.Errorf("compaction kept %d cells, want the %d the rows stored", len(kept), len(keys))
	}
}

// TestCompactDropsLiveModeRecords pins compaction across the retirement
// of live wall time: a default run's record keeps the key it had under
// the old --modeled-time mode, and a record stored under the old
// live-mode hash — unreachable by any run now — is dropped while the
// modeled one is kept.
func TestCompactDropsLiveModeRecords(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	runOn(t, fx, Config{Experiment: "splash", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest})
	recs, err := fx.ResultStore().Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d store records, want 1", len(recs))
	}
	// legacyHash is costModelHash as it was when live time and -no-memo
	// were part of the identity.
	legacyHash := func(modeled, noMemo bool) string {
		h := sha256.New()
		fmt.Fprintf(h, "calibration:%s\nmetrics-schema:%d\n", fx.calDigest, measure.MetricsSchemaVersion)
		fmt.Fprintf(h, "debug:false\nmodeled-time:%t\nno-memo:%t\n", modeled, noMemo)
		return hex.EncodeToString(h.Sum(nil))
	}
	modeled := recs[0]
	if got, want := modeled.Fingerprint.ConfigHash, legacyHash(true, false); got != want {
		t.Fatalf("default run stored ConfigHash %s, want the old modeled-mode hash %s", got, want)
	}
	live := modeled.Fingerprint
	live.ConfigHash = legacyHash(false, false)
	if err := fx.ResultStore().Put(live, modeled.Payload); err != nil {
		t.Fatal(err)
	}
	stats, err := fx.CompactStore()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 1 || stats.Dropped != 1 {
		t.Errorf("compaction kept %d and dropped %d records, want 1 and 1", stats.Kept, stats.Dropped)
	}
	if keys := storeKeys(t, fx); !slices.Equal(keys, []string{modeled.Fingerprint.Key()}) {
		t.Errorf("after compaction the store holds %q, want only the modeled record %s", keys, modeled.Fingerprint.Key())
	}
}

// TestRunIDsSkipLoadedRuns runs, saves the state and loads it into a
// fresh framework, as two `fex run --state F` invocations do: the second
// invocation's run must get run-0002 and leave run-0001's artifacts
// byte-identical.
func TestRunIDsSkipLoadedRuns(t *testing.T) {
	cfg := Config{Experiment: "splash", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest}
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	first, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.RunID != "run-0001" {
		t.Fatalf("first run ID %q, want run-0001", first.RunID)
	}
	firstLog, err := fx.ReadResult(first.RunLogPath)
	if err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := fx.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	next := newSchedFex(t)
	if err := next.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	cfg.Benchmarks = []string{"lu"} // a different log, so an overwrite shows
	second, err := next.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.RunID != "run-0002" {
		t.Errorf("run after LoadState got ID %q, want run-0002", second.RunID)
	}
	got, err := next.ReadResult(first.RunLogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, firstLog) {
		t.Errorf("loaded run-0001 log was overwritten:\n--- saved ---\n%s\n--- now ---\n%s", firstLog, got)
	}
}

// TestRunHistoryBounded runs 40 CLI-shaped invocations on one state
// file — New, LoadState, a -resume Run, SaveState — past the bound. Run
// IDs continue after the highest loaded one, so they strictly increase
// and never repeat a removed run's; after every save the "run-"
// directories are exactly the newest 33; every run's log and CSV
// equal a fresh framework's run of the same config; and directories
// outside the numbered families survive every load.
func TestRunHistoryBounded(t *testing.T) {
	configs := []Config{
		{Experiment: "splash", BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"fft"}, Reps: 1, Input: workload.SizeTest},
		{Experiment: "splash", BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"lu"}, Reps: 1, Input: workload.SizeTest},
	}
	type artifacts struct{ log, csv string }
	want := make([]artifacts, len(configs))
	for i, cfg := range configs {
		want[i].log, want[i].csv = runOnce(t, cfg, []string{"gcc-6.1"})
	}

	planted := []string{"baseline", "run-", "run-12a", "run-99999999999999999999"}
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	fsys, err := fx.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range planted {
		if err := fsys.WriteFile(runDir(name)+"/note", []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := fx.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	for i := range 40 {
		fx := newSchedFex(t)
		if err := fx.LoadState(bytes.NewReader(state.Bytes())); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		cfg := configs[i%len(configs)]
		cfg.Resume = true
		report, err := fx.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if id := fmt.Sprintf("run-%04d", i+1); report.RunID != id {
			t.Fatalf("cycle %d got run ID %s, want %s", i, report.RunID, id)
		}
		lg, err := fx.ReadResult(report.RunLogPath)
		if err != nil {
			t.Fatal(err)
		}
		csv, err := fx.ReadResult(report.RunCSVPath)
		if err != nil {
			t.Fatal(err)
		}
		if w := want[i%len(configs)]; string(lg) != w.log || string(csv) != w.csv {
			t.Errorf("cycle %d: artifacts differ from a fresh run:\n--- fresh log ---\n%s\n--- log ---\n%s\n--- fresh csv ---\n%s\n--- csv ---\n%s",
				i, w.log, lg, w.csv, csv)
		}
		state.Reset()
		if err := fx.SaveState(&state); err != nil {
			t.Fatal(err)
		}

		fsys, err := fx.Container().FS()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := fsys.ReadDir(RunsDir)
		if err != nil {
			t.Fatal(err)
		}
		var got, wantRuns []string
		for _, e := range entries {
			if fam, _, ok := runNumber(e.Name); ok && fam == "run-" {
				got = append(got, e.Name)
			}
		}
		// The newest 32 loaded runs, as the README states, and this one.
		for n := max(1, i+1-32); n <= i+1; n++ {
			wantRuns = append(wantRuns, fmt.Sprintf("run-%04d", n))
		}
		if !slices.Equal(got, wantRuns) {
			t.Errorf("cycle %d saved run directories %v, want %v", i, got, wantRuns)
		}
		for _, name := range planted {
			if !fsys.Exists(runDir(name) + "/note") {
				t.Errorf("cycle %d: planted run directory %q was removed", i, name)
			}
		}
	}
}

// TestLoadStateResetsStoreIndex loads a state into a framework whose
// store was already used: the loaded files replace the store's, so a
// -resume run of the saved campaign must replay every cell and execute
// none.
func TestLoadStateResetsStoreIndex(t *testing.T) {
	cfg := Config{Experiment: "splash", BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"}, Reps: 1, Input: workload.SizeTest}
	src := newSchedFex(t)
	installAll(t, src, "gcc-6.1", "clang-3.8.0")
	_, wantCSV := runOn(t, src, cfg)
	var state bytes.Buffer
	if err := src.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	other := Config{Experiment: "splash", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"radix"}, Reps: 1, Input: workload.SizeTest, Resume: true}
	runOn(t, fx, other) // adds a cell to the store
	if err := fx.LoadState(&state); err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.Resume = true
	plan, report := planOf(t, fx, warm)
	if plan.Total == 0 || plan.Replayed != plan.Total {
		t.Errorf("-resume after LoadState replayed %d of %d cells, want all", plan.Replayed, plan.Total)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != wantCSV {
		t.Errorf("replayed CSV differs from the saved run's:\n--- saved ---\n%s\n--- replayed ---\n%s", wantCSV, csv)
	}
}

// TestLoadStateUpgradesLegacyStore loads a state written by the CLI when
// the result store still kept an index, a journal and packs
// (testdata/legacy-store.fexstate). It was made by `fex run -n splash -t
// gcc_native clang_native -b fft lu -i test -r 1 --modeled-time` (the
// retired mode whose keys default runs still produce), then
// `fex compact`, which packed those four cells, then the same run with
// `-t gcc_native -b radix`, which added one loose record and one journal
// line. Loading it must upgrade the store: a -resume run of either
// configuration replays every cell, executes none and collects the CSV
// the original run stored; Records returns all five cells; and after a
// save and a reload the store root holds only shard directories.
func TestLoadStateUpgradesLegacyStore(t *testing.T) {
	state, err := os.ReadFile("testdata/legacy-store.fexstate")
	if err != nil {
		t.Fatal(err)
	}
	fx := newSchedFex(t)
	if err := fx.LoadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		types, benches []string
		run            string
	}{
		{[]string{"gcc_native", "clang_native"}, []string{"fft", "lu"}, "run-0001"},
		{[]string{"gcc_native"}, []string{"radix"}, "run-0002"},
	} {
		cfg := Config{Experiment: "splash", BuildTypes: tc.types, Benchmarks: tc.benches,
			Reps: 1, Input: workload.SizeTest, Resume: true}
		plan, report := planOf(t, fx, cfg)
		if plan.Total == 0 || plan.Replayed != plan.Total {
			t.Errorf("%s: replayed %d of %d cells, want all", cfg.String(), plan.Replayed, plan.Total)
		}
		want, err := fx.ReadResult("/fex/runs/" + tc.run + "/splash.csv")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := fx.ReadResult(report.CSVPath); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: replayed CSV differs from %s's (err %v):\n--- stored ---\n%s\n--- replayed ---\n%s", cfg.String(), tc.run, err, want, got)
		}
	}
	if keys := storeKeys(t, fx); len(keys) != 5 {
		t.Errorf("Records returned %d cells, want 5", len(keys))
	}
	var saved bytes.Buffer
	if err := fx.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	back := newSchedFex(t)
	if err := back.LoadState(&saved); err != nil {
		t.Fatal(err)
	}
	fsys, err := back.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.ReadDir(StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir || len(e.Name) != 2 {
			t.Errorf("store root holds %s after a save and a reload", e.Name)
		}
	}
	if keys := storeKeys(t, back); len(keys) != 5 {
		t.Errorf("reloaded store has %d cells, want 5", len(keys))
	}
}

// storeKeys lists the content addresses of fx's stored records, sorted.
func storeKeys(t *testing.T, fx *Fex) []string {
	t.Helper()
	recs, err := fx.ResultStore().Records()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Fingerprint.Key()
	}
	return keys
}
