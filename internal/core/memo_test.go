package core

import (
	"context"
	"sync/atomic"
	"testing"

	"fex/internal/workload"
	"fex/internal/workload/splash"
)

// memoFex builds a framework with fixed timestamps and real compilers, so
// memoized and unmemoized runs of a real experiment can be compared byte
// for byte.
func memoFex(t *testing.T) *Fex {
	t.Helper()
	fx, err := New(Options{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, fx, "gcc-6.1", "clang-3.8.0", "splash_inputs")
	return fx
}

// countingKernel counts a kernel's physical executions.
type countingKernel struct {
	workload.Workload
	runs *atomic.Int64
}

func (k countingKernel) Run(in workload.Input, threads int) (workload.Counters, error) {
	k.runs.Add(1)
	return k.Workload.Run(in, threads)
}

// countingMemoFex is memoFex over a splash-only registry whose kernels
// count their physical executions on every tier alike: the coordinator,
// -jobs workers and cluster hosts all run the same registered workloads.
func countingMemoFex(t *testing.T) (*Fex, *atomic.Int64) {
	t.Helper()
	shipped := workload.NewRegistry()
	if err := splash.Register(shipped); err != nil {
		t.Fatal(err)
	}
	ws, err := shipped.Suite("splash")
	if err != nil {
		t.Fatal(err)
	}
	runs := new(atomic.Int64)
	reg := workload.NewRegistry()
	for _, w := range ws {
		if err := reg.Register(countingKernel{Workload: w, runs: runs}); err != nil {
			t.Fatal(err)
		}
	}
	fx, err := New(Options{Now: fixedNow, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	installAll(t, fx, "gcc-6.1", "clang-3.8.0", "splash_inputs")
	return fx, runs
}

// allBuildTypes are the four shipped build types. The memo tests run all
// of them: a kernel's counters do not depend on the build type, so the
// shared execution memo serves each (benchmark, input, threads)
// configuration to every type from one execution.
var allBuildTypes = []string{"gcc_native", "gcc_asan", "clang_native", "clang_asan"}

// memoExecs sums MemoLen over the coordinator's artifacts for cfg's
// cells: the kernel executions the run's artifacts performed.
func memoExecs(t *testing.T, fx *Fex, cfg Config) int {
	t.Helper()
	n := 0
	for _, b := range cfg.Benchmarks {
		w, err := fx.Registry().Lookup(cfg.Experiment, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, bt := range cfg.BuildTypes {
			if a := fx.BuildSystem().Cached(w, bt, cfg.Debug); a != nil {
				n += a.MemoLen()
			}
		}
	}
	return n
}

// TestMemoDeterminism is the tentpole's byte-identity proof: a memoized
// run of a real repetition-heavy experiment produces exactly the log and
// CSV bytes of a -no-memo run that physically re-executes every kernel.
// Every metric, wall time included, is a pure function of the workload
// and build type, so any divergence the memo introduced would show as a
// byte diff.
func TestMemoDeterminism(t *testing.T) {
	var logs, csvs []string
	for _, noMemo := range []bool{false, true} {
		fx, runs := countingMemoFex(t)
		cfg := Config{
			Experiment: "splash",
			BuildTypes: allBuildTypes,
			Benchmarks: []string{"fft", "lu", "radix"},
			Threads:    []int{1, 2},
			Reps:       4,
			Input:      workload.SizeTest,
			NoMemo:     noMemo,
		}
		report, err := fx.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("noMemo=%t: %v", noMemo, err)
		}
		if want := 4 * 3 * 2 * 4; report.Measurements != want {
			t.Fatalf("noMemo=%t: %d measurements, want %d", noMemo, report.Measurements, want)
		}
		if !noMemo {
			// One execution per (benchmark, input, threads), not per
			// build type as well.
			const configs = 3 * 2
			if n := memoExecs(t, fx, cfg); n != configs {
				t.Errorf("artifacts performed %d kernel executions, want %d", n, configs)
			}
			if n := runs.Load(); n != configs {
				t.Errorf("kernels ran %d times, want %d", n, configs)
			}
		}
		lg, err := fx.ReadResult(report.LogPath)
		if err != nil {
			t.Fatal(err)
		}
		csv, err := fx.ReadResult(report.CSVPath)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, string(lg))
		csvs = append(csvs, string(csv))
	}
	if logs[0] != logs[1] {
		t.Errorf("memoized log differs from -no-memo:\n--- memo ---\n%s\n--- no-memo ---\n%s", logs[0], logs[1])
	}
	if csvs[0] != csvs[1] {
		t.Errorf("memoized CSV differs from -no-memo:\n--- memo ---\n%s\n--- no-memo ---\n%s", csvs[0], csvs[1])
	}
}

// TestMemoDeterminismAcrossTiers extends the scheduler determinism
// contract to the memoized engine: serial, -jobs, -hosts and -no-memo
// runs of the same real experiment agree byte for byte. Every memoized
// tier runs each (benchmark, input, threads) configuration's kernel
// exactly once across all build types — under -jobs the types of one
// benchmark race the same cold configuration, and single flight keeps
// the count exact. The -hosts variant uses one host: each host image has
// its own memo, outside the coordinator's build system, so there the
// kernel counter stands in for the artifacts' MemoLen sum.
func TestMemoDeterminismAcrossTiers(t *testing.T) {
	const configs = 2 * 2 // benchmarks × thread counts
	base := Config{
		Experiment: "splash",
		BuildTypes: allBuildTypes,
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1, 2},
		Reps:       3,
		Input:      workload.SizeTest,
	}
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"serial-memo", func(*Config) {}},
		{"jobs4-memo", func(c *Config) { c.Jobs = 4 }},
		{"hosts-memo", func(c *Config) { c.Hosts = []string{"w1"} }},
		{"serial-no-memo", func(c *Config) { c.NoMemo = true }},
		{"jobs4-no-memo", func(c *Config) { c.Jobs = 4; c.NoMemo = true }},
	}
	var logs []string
	for _, v := range variants {
		fx, runs := countingMemoFex(t)
		cfg := base
		v.mod(&cfg)
		report, err := fx.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !cfg.NoMemo {
			if n := runs.Load(); n != configs {
				t.Errorf("%s: kernels ran %d times, want %d", v.name, n, configs)
			}
			if n := memoExecs(t, fx, cfg); cfg.Hosts == nil && n != configs {
				t.Errorf("%s: artifacts performed %d kernel executions, want %d", v.name, n, configs)
			}
		}
		lg, err := fx.ReadResult(report.LogPath)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, string(lg))
	}
	for i := 1; i < len(logs); i++ {
		if logs[i] != logs[0] {
			t.Errorf("%s log differs from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				variants[i].name, variants[0].name, variants[0].name, logs[0], variants[i].name, logs[i])
		}
	}
}

// TestWriteRatioReported pins the perf-stat-mem write_ratio fix end to
// end: a real experiment run under the memory tool reports a nonzero
// write ratio derived from the kernel's read/write mix.
func TestWriteRatioReported(t *testing.T) {
	fx := memoFex(t)
	report, err := fx.Run(context.Background(), Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"lu"},
		Input:      workload.SizeTest,
		Tool:       "perf-stat-mem",
	})
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := report.Table.Floats("write_ratio")
	if err != nil {
		t.Fatalf("write_ratio column missing: %v", err)
	}
	for _, r := range ratios {
		if r <= 0 || r >= 1 {
			t.Errorf("write_ratio %g outside (0,1) — the metric is dead again", r)
		}
	}
}
