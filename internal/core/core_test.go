package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fex/internal/env"
	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/table"
	"fex/internal/workload"
)

// repoRoot locates the repository root relative to this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func newFex(t *testing.T) *Fex {
	t.Helper()
	fx, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func installAll(t *testing.T, fx *Fex, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := fx.Install(n); err != nil {
			t.Fatalf("install %s: %v", n, err)
		}
	}
}

func runPhoenixSubset(t *testing.T, fx *Fex, cfg Config) *RunReport {
	t.Helper()
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestNewRegistersBuiltins(t *testing.T) {
	fx := newFex(t)
	names := fx.ExperimentNames()
	for _, want := range []string{"phoenix", "splash", "parsec", "micro",
		"phoenix_var_input", "parsec_var_input", "nginx", "apache", "memcached", "ripe"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in experiment %q missing (have %v)", want, names)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no experiment", Config{BuildTypes: []string{"gcc_native"}}},
		{"no types", Config{Experiment: "phoenix"}},
		{"duplicate types", Config{Experiment: "phoenix", BuildTypes: []string{"a", "a"}}},
		{"bad threads", Config{Experiment: "phoenix", BuildTypes: []string{"a"}, Threads: []int{0}}},
	}
	for _, c := range cases {
		cfg := c.cfg
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Experiment: "phoenix", BuildTypes: []string{"gcc_native"}}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Threads) != 1 || cfg.Threads[0] != 1 || cfg.Reps != 1 || cfg.Input != workload.SizeNative {
		t.Errorf("defaults %+v", cfg)
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Threads:    []int{1, 2, 4},
		Reps:       10,
		Debug:      true,
		Tool:       "perf-stat-mem",
	}
	s := cfg.String()
	for _, want := range []string{"fex run -n splash", "-t gcc_native clang_native", "-m 1 2 4", "-r 10", "-tool perf-stat-mem", "-d"} {
		if !strings.Contains(s, want) {
			t.Errorf("config string %q missing %q", s, want)
		}
	}
	// The default tool is implicit: the reproducibility line must not pin
	// an empty -tool.
	cfg.Tool = ""
	if s := cfg.String(); strings.Contains(s, "-tool") {
		t.Errorf("config string %q renders -tool for default tool", s)
	}

	// A single repetition is implicit, and the deprecated ModelTime field
	// is never rendered: wall_ns is always modeled time.
	cfg.Reps = 0
	cfg.Resume = true
	cfg.ModelTime = true
	s = cfg.String()
	if !strings.Contains(s, " -resume") {
		t.Errorf("config string %q missing -resume", s)
	}
	for _, unwanted := range []string{" -r ", "modeled"} {
		if strings.Contains(s, unwanted) {
			t.Errorf("config string %q renders %q", s, unwanted)
		}
	}
}

// TestWallTimeIsModeledTime is the trust test of the one time base: a
// default run of every splash benchmark under three build types reports
// wall_ns as exactly the modeled cycles at the nominal modeled clock, so
// the wall_ns ratio between any two types is the modeled ratio and wall
// time ranks the types the way cycles do. The time tool's wall_seconds
// is the same value in seconds.
func TestWallTimeIsModeledTime(t *testing.T) {
	fx := memoFex(t)
	for _, tool := range []string{"", "time"} {
		report, err := fx.Run(context.Background(), Config{
			Experiment: "splash",
			BuildTypes: []string{"gcc_native", "clang_native", "gcc_asan"},
			Reps:       3,
			Input:      workload.SizeTest,
			Tool:       tool,
		})
		if err != nil {
			t.Fatal(err)
		}
		benches, _ := report.Table.Strings("bench")
		types, _ := report.Table.Strings("type")
		cycles, err := report.Table.Floats("cycles")
		if err != nil {
			t.Fatal(err)
		}
		walls, err := report.Table.Floats("wall_ns")
		if err != nil {
			t.Fatal(err)
		}
		if len(walls) != 36 {
			t.Fatalf("tool %q: %d CSV rows, want 36 (12 benchmarks x 3 types)", tool, len(walls))
		}
		for i, wall := range walls {
			want := float64(time.Duration(cycles[i] / measure.ModeledClockGHz).Nanoseconds())
			if wall != want {
				t.Errorf("tool %q, %s [%s]: wall_ns %v, want %v (cycles %v at %v GHz)",
					tool, benches[i], types[i], wall, want, cycles[i], measure.ModeledClockGHz)
			}
		}
		if tool != "time" {
			continue
		}
		secs, err := report.Table.Floats("wall_seconds")
		if err != nil {
			t.Fatal(err)
		}
		// A CSV cell is the mean of the repetitions, and the float mean
		// of three equal non-integer values may be off by an ulp.
		for i, sec := range secs {
			if want := walls[i] / 1e9; math.Abs(sec-want) > 1e-12*want {
				t.Errorf("%s [%s]: wall_seconds %v, want %v", benches[i], types[i], sec, want)
			}
		}
	}
}

func TestParseThreadList(t *testing.T) {
	got, err := ParseThreadList([]string{"1", "2", "4"})
	if err != nil || len(got) != 3 || got[2] != 4 {
		t.Errorf("got %v, %v", got, err)
	}
	if _, err := ParseThreadList([]string{"x"}); err == nil {
		t.Error("expected error")
	}
}

func TestRunRequiresInstalledCompiler(t *testing.T) {
	fx := newFex(t)
	_, err := fx.Run(context.Background(), Config{
		Experiment: "phoenix",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"histogram"},
		Input:      workload.SizeTest,
	})
	if err == nil || !strings.Contains(err.Error(), "not installed") {
		t.Errorf("got %v, want not-installed error", err)
	}
}

// TestInstallPrerequisitesWhenInstalled pins the steady state of serve
// and of an edit-and-rerun loop, which call InstallPrerequisites before
// every run: with every prerequisite installed, a call reads the install
// manifest and writes nothing.
func TestInstallPrerequisitesWhenInstalled(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0")
	fsys, err := fx.Container().FS()
	if err != nil {
		t.Fatal(err)
	}
	before, err := fsys.Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	ops := fsys.Ops()
	if err := fx.InstallPrerequisites("gcc_native", "clang_native", "gcc_asan"); err != nil {
		t.Fatal(err)
	}
	if n := fsys.Ops() - ops; n > 2 {
		t.Errorf("InstallPrerequisites with everything installed made %d vfs operations, want at most 2", n)
	}
	if after, err := fsys.Digest("/"); err != nil || after != before {
		t.Errorf("InstallPrerequisites with everything installed changed the container (err %v)", err)
	}
}

func TestRunPhoenixEndToEnd(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	report := runPhoenixSubset(t, fx, Config{
		Experiment: "phoenix",
		BuildTypes: []string{"gcc_native", "gcc_asan"},
		Benchmarks: []string{"histogram"},
		Input:      workload.SizeTest,
		Reps:       2,
	})
	// 1 bench × 2 types × 1 thread count, reps averaged → 2 rows.
	if report.Table.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", report.Table.NumRows(), report.Table.String())
	}
	if report.Measurements != 4 {
		t.Errorf("measurements = %d, want 2 types × 2 reps", report.Measurements)
	}
	// ASan must cost more modeled cycles and the checksums must agree.
	cycles, err := report.Table.Floats("cycles")
	if err != nil {
		t.Fatal(err)
	}
	types, _ := report.Table.Strings("type")
	byType := map[string]float64{}
	for i := range types {
		byType[types[i]] = cycles[i]
	}
	if byType["gcc_asan"] <= byType["gcc_native"] {
		t.Errorf("asan %v not slower than native %v", byType["gcc_asan"], byType["gcc_native"])
	}
	sums, err := report.Table.Floats("checksum")
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != sums[1] {
		t.Error("build types computed different results")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	fx := newFex(t)
	_, err := fx.Run(context.Background(), Config{Experiment: "nope", BuildTypes: []string{"gcc_native"}})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("got %v", err)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_, err := fx.Run(context.Background(), Config{
		Experiment: "phoenix",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"does_not_exist"},
		Input:      workload.SizeTest,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmarks") {
		t.Errorf("got %v", err)
	}
}

func TestRunThreadSweep(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	report := runPhoenixSubset(t, fx, Config{
		Experiment: "micro",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"},
		Threads:    []int{1, 2, 4},
		Input:      workload.SizeTest,
	})
	if report.Table.NumRows() != 3 {
		t.Fatalf("rows = %d", report.Table.NumRows())
	}
	threads, _ := report.Table.Floats("threads")
	cycles, _ := report.Table.Floats("cycles")
	// Modeled cycles must decrease with threads for a parallel kernel.
	for i := 1; i < len(threads); i++ {
		if threads[i] <= threads[i-1] {
			t.Errorf("thread column not increasing: %v", threads)
		}
		if cycles[i] >= cycles[i-1] {
			t.Errorf("cycles did not decrease with threads: %v", cycles)
		}
	}
}

func TestRunDebugSlower(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	release := runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest,
	})
	debug := runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest, Debug: true,
	})
	rc, _ := release.Table.Floats("cycles")
	dc, _ := debug.Table.Floats("cycles")
	if dc[0] <= rc[0] {
		t.Errorf("debug build (%v) not slower than release (%v)", dc[0], rc[0])
	}
}

func TestNoBuildReusesArtifacts(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest,
	})
	cached := fx.BuildSystem().CachedArtifacts()
	if cached == 0 {
		t.Fatal("no cached artifacts after run")
	}
	// A normal run rebuilds (cache cleared then repopulated); --no-build
	// must keep the existing cache entries.
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest, NoBuild: true,
	})
	if fx.BuildSystem().CachedArtifacts() < cached {
		t.Error("--no-build dropped cached artifacts")
	}
}

func TestDryRunRecordedForPhoenix(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "phoenix", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"histogram"}, Input: workload.SizeTest,
	})
	data, err := fx.ReadResult(logPath("phoenix"))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := runlog.Parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range lg.Notes {
		if strings.Contains(n.Text, "dry run") {
			found = true
		}
	}
	if !found {
		t.Error("phoenix run has no dry-run note")
	}
}

func TestEnvironmentStoredInLog(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_asan"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest,
	})
	data, err := fx.ReadResult(logPath("micro"))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := runlog.Parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lg.Environment, "\n")
	if !strings.Contains(joined, "ASAN_OPTIONS=") {
		t.Errorf("asan environment not in log:\n%s", joined)
	}
	if !strings.Contains(joined, "FEX_ROOT=/fex") {
		t.Errorf("framework defaults not in log:\n%s", joined)
	}
}

func TestVariableInputExperiment(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	report := runPhoenixSubset(t, fx, Config{
		Experiment: "phoenix_var_input",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"histogram"},
	})
	// Three input classes → three rows (bench names carry the class).
	if report.Table.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", report.Table.NumRows(), report.Table.String())
	}
	benches, _ := report.Table.Strings("bench")
	classes := map[string]bool{}
	for _, b := range benches {
		parts := strings.Split(b, ":")
		if len(parts) == 2 {
			classes[parts[1]] = true
		}
	}
	for _, want := range []string{"test", "small", "native"} {
		if !classes[want] {
			t.Errorf("input class %q missing (%v)", want, classes)
		}
	}
}

func TestCollectWithoutRunFails(t *testing.T) {
	fx := newFex(t)
	if _, err := fx.Collect("phoenix"); err == nil {
		t.Error("expected error collecting before any run")
	}
}

func TestCollectRereadsStoredLog(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	first := runPhoenixSubset(t, fx, Config{
		Experiment: "micro", BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read"}, Input: workload.SizeTest,
	})
	again, err := fx.Collect("micro")
	if err != nil {
		t.Fatal(err)
	}
	if again.CSVString() != first.Table.CSVString() {
		t.Error("re-collect produced a different table")
	}
}

// TestRunCSVEqualsCollectOfStoredLog checks the collect step a run does
// from its log writer's parsed view — shard parses merged, other records
// parsed as written — against fx.Collect, which parses the stored log
// from scratch. They must agree on every way records reach the log:
// local cells serially and in parallel, remote shards, replayed store
// entries, a dry-run note, and a runner that writes to the run log
// directly (RIPE).
func TestRunCSVEqualsCollectOfStoredLog(t *testing.T) {
	splash := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
	}
	with := func(set func(*Config)) Config {
		cfg := splash
		set(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		installs []string
		resume   bool
	}{
		{"serial", splash, nil, false},
		{"jobs4", with(func(c *Config) { c.Jobs = 4 }), nil, false},
		{"hosts", with(func(c *Config) { c.Hosts = []string{"w1", "w2"} }), nil, false},
		{"resume", splash, nil, true},
		{"dry-run", Config{
			Experiment: "phoenix", BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"histogram", "word_count"}, Reps: 2, Input: workload.SizeTest,
		}, nil, false},
		{"direct-writer", Config{Experiment: "ripe", BuildTypes: []string{"gcc_native", "clang_native"}}, []string{"ripe"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFex(t)
			installAll(t, fx, append([]string{"gcc-6.1", "clang-3.8.0"}, tc.installs...)...)
			cfg := tc.cfg
			if tc.resume {
				if _, err := fx.Run(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
				cfg.Resume = true
			}
			replayed := 0
			report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{
				Progress: func(ev ProgressEvent) { replayed = ev.Replayed },
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.resume && replayed == 0 {
				t.Fatal("the -resume run replayed no cells")
			}
			csv, err := fx.ReadResult(report.RunCSVPath)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := fx.Collect(cfg.Experiment)
			if err != nil {
				t.Fatal(err)
			}
			if got := tbl.CSVString(); got != string(csv) {
				t.Errorf("run CSV differs from Collect of the stored log:\n--- run ---\n%s\n--- collect ---\n%s", csv, got)
			}
			if tc.name == "dry-run" {
				lg, err := fx.ReadResult(report.RunLogPath)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(lg), "NOTE|dry run") {
					t.Error("the phoenix run wrote no dry-run note")
				}
			}
		})
	}
}

func TestPlotSplashPerf(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0")
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
	})
	svg, err := fx.Plot("splash", "perf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "Native (Clang)") {
		t.Error("perf plot malformed")
	}
	// The plot is also stored in the container.
	if _, err := fx.ReadResult(plotPath("splash", "perf")); err != nil {
		t.Errorf("stored plot missing: %v", err)
	}
}

func TestPlotKinds(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	// The memory-flavoured plots need the perf-stat-mem tool's metrics.
	_ = runPhoenixSubset(t, fx, Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "gcc_asan"},
		Benchmarks: []string{"fft"},
		Threads:    []int{1, 2},
		Input:      workload.SizeTest,
		Tool:       "perf-stat-mem",
	})
	for _, kind := range []string{"perf", "mem", "threads", "cache"} {
		if _, err := fx.Plot("splash", kind); err != nil {
			t.Errorf("plot %s: %v", kind, err)
		}
	}
	if _, err := fx.Plot("splash", "pie"); err == nil {
		t.Error("unknown plot kind accepted")
	}
}

func TestRipeExperimentMatchesTable2(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0", "ripe")
	report, err := fx.Run(context.Background(), Config{
		Experiment: "ripe",
		BuildTypes: []string{"gcc_native", "clang_native"},
	})
	if err != nil {
		t.Fatal(err)
	}
	types, _ := report.Table.Strings("type")
	succ, _ := report.Table.Floats("successful")
	fail, _ := report.Table.Floats("failed")
	got := map[string][2]float64{}
	for i := range types {
		got[types[i]] = [2]float64{succ[i], fail[i]}
	}
	if got["gcc_native"] != [2]float64{64, 786} {
		t.Errorf("gcc %v, want [64 786]", got["gcc_native"])
	}
	if got["clang_native"] != [2]float64{38, 812} {
		t.Errorf("clang %v, want [38 812]", got["clang_native"])
	}
}

func TestRipeRequiresInstall(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_, err := fx.Run(context.Background(), Config{Experiment: "ripe", BuildTypes: []string{"gcc_native"}})
	if err == nil || !strings.Contains(err.Error(), "fex install -n ripe") {
		t.Errorf("got %v", err)
	}
}

func TestRipeHasNoPlot(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "ripe")
	if _, err := fx.Run(context.Background(), Config{Experiment: "ripe", BuildTypes: []string{"gcc_native"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Plot("ripe", ""); err == nil {
		t.Error("ripe should define no plots (per the paper)")
	}
}

func TestNginxExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0", "nginx-1.4.1")
	err := fx.RegisterExperiment(&Experiment{
		Name: "nginx_test",
		Kind: KindThroughputLatency,
		NewRunner: func(fx *Fex) (Runner, error) {
			return &ServerBenchRunner{
				App:      "nginx",
				Rates:    []float64{200, 400},
				Duration: 150 * time.Millisecond,
				Workers:  2,
			}, nil
		},
		Collect:  NetCollect,
		CSVKinds: NetCSVKinds(),
		Plot: func(tbl *table.Table, kind string) (string, error) {
			return ThroughputLatencyPlot(tbl, "test")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := fx.Run(context.Background(), Config{
		Experiment: "nginx_test",
		BuildTypes: []string{"gcc_native", "clang_native"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 rates × 2 types.
	if report.Table.NumRows() != 4 {
		t.Fatalf("rows = %d\n%s", report.Table.NumRows(), report.Table.String())
	}
	tput, _ := report.Table.Floats("throughput")
	for i, v := range tput {
		if v <= 0 {
			t.Errorf("row %d: zero throughput", i)
		}
	}
	if _, err := fx.Plot("nginx_test", "tput-latency"); err != nil {
		t.Errorf("plot: %v", err)
	}
}

func TestMemcachedExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1", "memcached-1.4.25")
	err := fx.RegisterExperiment(&Experiment{
		Name: "memcached_test",
		Kind: KindThroughputLatency,
		NewRunner: func(fx *Fex) (Runner, error) {
			return &ServerBenchRunner{
				App:      "memcached",
				Rates:    []float64{200},
				Duration: 150 * time.Millisecond,
			}, nil
		},
		Collect:  NetCollect,
		CSVKinds: NetCSVKinds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := fx.Run(context.Background(), Config{
		Experiment: "memcached_test",
		BuildTypes: []string{"gcc_native"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Table.NumRows() != 1 {
		t.Errorf("rows = %d", report.Table.NumRows())
	}
}

func TestNginxRequiresInstall(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "gcc-6.1")
	_, err := fx.Run(context.Background(), Config{Experiment: "nginx", BuildTypes: []string{"gcc_native"}})
	if err == nil || !strings.Contains(err.Error(), "nginx-1.4.1") {
		t.Errorf("got %v", err)
	}
}

func TestGenericCollectEmptyLog(t *testing.T) {
	if _, err := GenericCollect(&runlog.Log{}); err == nil {
		t.Error("expected error for empty log")
	}
}

// TestGenericCollectMixedMetricSets averages records whose metric names
// change between consecutive records and whose group recurs after
// another group, so the collect stage cannot rely on one name→column
// mapping or on contiguous groups.
func TestGenericCollectMixedMetricSets(t *testing.T) {
	rec := func(bench string, rep int, values map[string]float64) runlog.Measurement {
		return runlog.Measurement{Suite: "splash", Benchmark: bench, BuildType: "gcc_native",
			Threads: 1, Rep: rep, Values: measure.FromMap(values)}
	}
	tbl, err := GenericCollect(&runlog.Log{Measurements: []runlog.Measurement{
		rec("fft", 0, map[string]float64{"cycles": 10, "ipc": 1}),
		rec("fft", 1, map[string]float64{"cycles": 20}),
		rec("fft", 2, map[string]float64{"cycles": 30, "wall_ns": 5}),
		rec("lu", 0, map[string]float64{"ipc": 2, "wall_ns": 7}),
		rec("fft", 3, map[string]float64{"cycles": 40, "ipc": 3}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{"cycles": {25, 0}, "ipc": {2, 2}, "wall_ns": {5, 7}}
	for col, w := range want {
		got, err := tbl.Floats(col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s = %v, want %v (rows fft, lu)", col, got, w)
		}
	}
	if n := len(tbl.Names()); n != 7 {
		t.Errorf("%d columns, want suite, bench, type, threads and 3 metrics", n)
	}
}

func TestInventoryMatchesTable1(t *testing.T) {
	fx := newFex(t)
	inv := fx.BuildInventory()
	joined := inv.String()
	// Table I rows.
	for _, want := range []string{
		"phoenix", "splash", "parsec", // benchmark suites
		"apache", "nginx", "memcached", "ripe", "micro", // additional benchmarks
		"gcc 6.1", "clang 3.8.0", // compilers
		"gcc_asan", "clang_asan", // types (ASan as the example)
		"perf-stat", "time", // tools
		"stacked-grouped barplot", // plots
		"SPEC CPU2006",            // proprietary-license note
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("inventory missing %q:\n%s", want, joined)
		}
	}
}

func TestEffortMeasurement(t *testing.T) {
	// Measure against the real repository root.
	results, err := MeasureEffort(repoRoot(t), CaseStudyUnits())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d", len(results))
	}
	byName := map[string]EffortResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.MeasuredLoC == 0 {
			t.Errorf("%s: zero LoC measured", r.Name)
		}
	}
	// The paper's ordering must hold: RIPE < Nginx < SPLASH-3.
	if !(byName["ripe"].MeasuredLoC < byName["nginx"].MeasuredLoC &&
		byName["nginx"].MeasuredLoC < byName["splash-3"].MeasuredLoC) {
		t.Errorf("effort ordering violated: %+v", results)
	}
}

func TestCountGoLoC(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.go"
	src := "package x\n\n// comment\n/* block\ncomment */\nfunc F() int {\n\treturn 1\n}\n"
	if err := writeFile(path, src); err != nil {
		t.Fatal(err)
	}
	n, err := CountGoLoC(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // package, func, return, closing brace
		t.Errorf("LoC = %d, want 4", n)
	}
}

func TestStateSaveLoadRoundtrip(t *testing.T) {
	fx := newFex(t)
	installAll(t, fx, "ripe")
	var buf bytes.Buffer
	if err := fx.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fx2 := newFex(t)
	if err := fx2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	have, err := fx2.Installed("ripe")
	if err != nil || !have {
		t.Errorf("restored state lost install manifest: %t, %v", have, err)
	}
}

func TestRegisterEnvProvider(t *testing.T) {
	fx := newFex(t)
	custom := env.New()
	_ = custom.Set(env.Forced, "MPX_OPTIONS", "bound_checks=1")
	if err := fx.RegisterEnvProvider("mpx", staticProvider{vars: custom}); err != nil {
		t.Fatal(err)
	}
	e := fx.environmentFor([]string{"gcc_mpx"})
	resolved := e.Resolve(false)
	if resolved["MPX_OPTIONS"] != "bound_checks=1" {
		t.Errorf("custom provider not applied: %v", resolved)
	}
	if err := fx.RegisterEnvProvider("", nil); err == nil {
		t.Error("expected validation error")
	}
}

func TestRegisterExperimentValidation(t *testing.T) {
	fx := newFex(t)
	if err := fx.RegisterExperiment(nil); err == nil {
		t.Error("nil experiment accepted")
	}
	if err := fx.RegisterExperiment(&Experiment{Name: "x"}); err == nil {
		t.Error("experiment without runner accepted")
	}
	if err := fx.RegisterExperiment(&Experiment{
		Name:      "phoenix",
		NewRunner: func(fx *Fex) (Runner, error) { return &BenchRunner{}, nil },
	}); err == nil {
		t.Error("duplicate experiment accepted")
	}
}

func TestSeriesLabels(t *testing.T) {
	cases := map[string]string{
		"gcc_native":   "Native (GCC)",
		"clang_native": "Native (Clang)",
		"gcc_asan":     "ASan (GCC)",
		"custom_type":  "custom_type",
	}
	for in, want := range cases {
		if got := seriesLabel(in); got != want {
			t.Errorf("seriesLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// staticProvider adapts a fixed environment to env.Provider.
type staticProvider struct{ vars *env.Environment }

func (p staticProvider) Name() string                { return "static" }
func (p staticProvider) Variables() *env.Environment { return p.vars }
