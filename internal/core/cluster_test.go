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
	"fex/internal/remote"
	"fex/internal/workload"
)

// This file is the determinism-proving harness for the cluster execution
// tier (cluster.go): golden-style comparisons asserting that serial
// (-jobs 1), parallel (-jobs 4), and cluster (-hosts w1,w2,w3) runs of
// the builtin experiments store byte-identical logs and CSVs, plus fault
// injection (unreachable hosts, latency skew) proving failover never
// loses a shard or perturbs the stored output. Everything here runs
// under -race in CI.

// runModes enumerates the three execution backends the determinism
// contract spans.
var runModes = []struct {
	name string
	set  func(*Config)
}{
	{"serial", func(c *Config) { c.Jobs = 1 }},
	{"parallel", func(c *Config) { c.Jobs = 4 }},
	{"cluster", func(c *Config) { c.Hosts = []string{"w1", "w2", "w3"} }},
}

// runOnce executes one experiment on a fresh framework and returns the
// stored log and CSV bytes.
func runOnce(t *testing.T, cfg Config, installs []string) (string, string) {
	t.Helper()
	fx := newSchedFex(t)
	installAll(t, fx, installs...)
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

// determinismExperiments is the builtin-experiment matrix of the
// determinism contract: every builtin experiment whose runner is
// cell-based (the benchmark suites and their variable-input variants)
// plus the RIPE experiment. The network experiments (nginx, apache,
// memcached) measure live load-generator timing and are inherently
// machine-dependent; they have no determinism contract to assert. The
// matrix is shared by the cold three-mode suite below and the cold/warm
// -resume suite (resume_test.go).
var determinismExperiments = []struct {
	name     string
	cfg      Config
	installs []string
}{
	{
		name: "phoenix",
		cfg: Config{
			Experiment: "phoenix",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Threads:    []int{1, 2},
			Reps:       2,
			Input:      workload.SizeTest,
		},
		installs: []string{"gcc-6.1", "clang-3.8.0"},
	},
	{
		name: "splash",
		cfg: Config{
			Experiment: "splash",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Threads:    []int{1, 2},
			Input:      workload.SizeTest,
		},
		installs: []string{"gcc-6.1", "clang-3.8.0"},
	},
	{
		name: "parsec",
		cfg: Config{
			Experiment: "parsec",
			BuildTypes: []string{"gcc_native", "gcc_asan"},
			Reps:       2,
			Input:      workload.SizeTest,
		},
		installs: []string{"gcc-6.1"},
	},
	{
		name: "micro",
		cfg: Config{
			Experiment: "micro",
			BuildTypes: []string{"gcc_native", "clang_native", "gcc_asan"},
			Input:      workload.SizeTest,
		},
		installs: []string{"gcc-6.1", "clang-3.8.0"},
	},
	{
		name: "phoenix_var_input",
		cfg: Config{
			Experiment: "phoenix_var_input",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Benchmarks: []string{"histogram", "string_match"},
		},
		installs: []string{"gcc-6.1", "clang-3.8.0"},
	},
	{
		name: "parsec_var_input",
		cfg: Config{
			Experiment: "parsec_var_input",
			BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"blackscholes", "streamcluster"},
		},
		installs: []string{"gcc-6.1"},
	},
	{
		// The time tool derives wall_seconds from modeled time, so that
		// metric is deterministic too.
		name: "micro_time_tool",
		cfg: Config{
			Experiment: "micro",
			BuildTypes: []string{"gcc_native", "gcc_asan"},
			Reps:       2,
			Input:      workload.SizeTest,
			Tool:       "time",
		},
		installs: []string{"gcc-6.1"},
	},
	{
		name: "ripe",
		cfg: Config{
			Experiment: "ripe",
			BuildTypes: []string{"gcc_native", "clang_native"},
		},
		installs: []string{"gcc-6.1", "clang-3.8.0", "ripe"},
	},
	{
		// Duplicated sweep: the same benchmark listed twice in -b. The
		// planner measures the distinct cell once and replays its shard
		// into the duplicate position; the contract — byte-identical
		// logs/CSVs across all three tiers, cold and resumed — must hold
		// for deduped runs too.
		name: "splash_dup_sweep",
		cfg: Config{
			Experiment: "splash",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Benchmarks: []string{"fft", "lu", "fft"},
			Threads:    []int{1, 2},
			Reps:       2,
			Input:      workload.SizeTest,
		},
		installs: []string{"gcc-6.1", "clang-3.8.0"},
	},
}

// TestClusterDeterminismBuiltinExperiments is the golden suite of the
// determinism contract: all three execution modes must store
// byte-identical run logs and CSVs for every experiment in the matrix.
// wall_ns is modeled time, a pure function of the workload, so the
// comparison covers every metric byte.
func TestClusterDeterminismBuiltinExperiments(t *testing.T) {
	for _, tc := range determinismExperiments {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var logs, csvs, names []string
			for _, mode := range runModes {
				cfg := tc.cfg
				mode.set(&cfg)
				lg, csv := runOnce(t, cfg, tc.installs)
				logs = append(logs, lg)
				csvs = append(csvs, csv)
				names = append(names, mode.name)
			}
			for i := 1; i < len(logs); i++ {
				if logs[i] != logs[0] {
					t.Errorf("%s: run log differs between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
						tc.name, names[0], names[i], names[0], logs[0], names[i], logs[i])
				}
				if csvs[i] != csvs[0] {
					t.Errorf("%s: CSV differs between %s and %s:\n--- %s ---\n%s\n--- %s ---\n%s",
						tc.name, names[0], names[i], names[0], csvs[0], names[i], csvs[i])
				}
			}
		})
	}
}

// clusterFex builds a framework whose cluster has the given hosts
// pre-registered, so tests can inject faults before the run provisions
// workers.
func clusterFex(t *testing.T, hosts ...string) (*Fex, *remote.Cluster) {
	t.Helper()
	cluster := remote.NewCluster()
	for _, h := range hosts {
		if _, err := cluster.Ensure(h); err != nil {
			t.Fatal(err)
		}
	}
	fx, err := New(Options{Now: fixedNow, Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	return fx, cluster
}

// serialReference runs the experiment serially on a fresh framework and
// returns its stored log and CSV — the golden bytes every fault-injection
// cluster run must still reproduce.
func serialReference(t *testing.T, name string, hooks Hooks, cfg Config) (string, string) {
	t.Helper()
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, name, hooks)
	ref := cfg
	ref.Hosts = nil
	ref.Jobs = 1
	report, err := fx.Run(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
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

// TestClusterFailoverHostDownFromStart injects an unreachable host before
// the run: its cells fail over to the healthy hosts, the failover is
// logged exactly once to the verbose stream, and the stored log and CSV
// stay byte-identical to the serial run — the outage is invisible in the
// experiment record.
func TestClusterFailoverHostDownFromStart(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_failover",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix", "ocean"},
		Reps:       2,
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w1", "w2"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_failover", deterministicHooks(0), cfg)

	fx, cluster := clusterFex(t, "w1", "w2")
	w2, err := cluster.Host("w2")
	if err != nil {
		t.Fatal(err)
	}
	w2.SetUnreachable(true)
	var verbose strings.Builder
	fx.verbose = newSyncWriter(&verbose)
	registerSchedExperiment(t, fx, "cluster_failover", deterministicHooks(0))

	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cluster run with one dead host failed: %v", err)
	}
	if want := 2 * 4 * 2; report.Measurements != want {
		t.Fatalf("%d measurements, want %d (shard loss?)", report.Measurements, want)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(lg) != wantLog {
		t.Errorf("failover run log differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", wantLog, lg)
	}
	if string(csv) != wantCSV {
		t.Errorf("failover CSV differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", wantCSV, csv)
	}
	if got := strings.Count(verbose.String(), "host w2 unreachable; failing over"); got != 1 {
		t.Errorf("failover logged %d times, want exactly once:\n%s", got, verbose.String())
	}
}

// TestClusterFailoverMidRunOutage kills a host mid-experiment (from
// inside a measurement hook, the moment the first cell lands on the other
// host) and asserts the run completes with the full measurement set and
// byte-identical output: the in-flight placement is the only one lost,
// and it is retried elsewhere.
func TestClusterFailoverMidRunOutage(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_midrun",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix", "ocean", "barnes", "water-nsquared"},
		Reps:       2,
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w1", "w2", "w3"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_midrun", deterministicHooks(0), cfg)

	fx, cluster := clusterFex(t, "w1", "w2", "w3")
	w3, err := cluster.Host("w3")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	hooks := deterministicHooks(0)
	base := hooks.PerRunAction
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		// First measured repetition anywhere in the cluster takes w3 down.
		once.Do(func() { w3.SetUnreachable(true) })
		return base(rc, buildType, w, threads, rep)
	}
	registerSchedExperiment(t, fx, "cluster_midrun", hooks)

	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cluster run with mid-run outage failed: %v", err)
	}
	if want := 2 * 6 * 2; report.Measurements != want {
		t.Fatalf("%d measurements, want %d (shard loss?)", report.Measurements, want)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(lg) != wantLog {
		t.Errorf("mid-run outage log differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", wantLog, lg)
	}
	if string(csv) != wantCSV {
		t.Errorf("mid-run outage CSV differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", wantCSV, csv)
	}
}

// TestClusterAllHostsUnreachable asserts the terminal failure mode: when
// every host is down, the run fails with an error that names the stranded
// cell and the hosts that were tried.
func TestClusterAllHostsUnreachable(t *testing.T) {
	fx, cluster := clusterFex(t, "w1", "w2")
	for _, name := range []string{"w1", "w2"} {
		h, err := cluster.Host(name)
		if err != nil {
			t.Fatal(err)
		}
		h.SetUnreachable(true)
	}
	registerSchedExperiment(t, fx, "cluster_dark", deterministicHooks(0))

	_, err := fx.Run(context.Background(), Config{
		Experiment: "cluster_dark",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	})
	if err == nil {
		t.Fatal("run succeeded with every host unreachable")
	}
	if !errors.Is(err, remote.ErrUnreachable) {
		t.Errorf("error %v does not wrap remote.ErrUnreachable", err)
	}
	// Which cell discovers exhaustion depends on completion order; the
	// attribution must name a cell, its build type, and the full host set.
	for _, want := range []string{"cell splash/", "gcc_native", "w1", "w2", "no reachable host"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestClusterCellErrorAttribution asserts a genuine cell failure (not an
// outage) aborts the run with an error naming both the cell and the host
// it ran on, and is not retried elsewhere.
func TestClusterCellErrorAttribution(t *testing.T) {
	fx, _ := clusterFex(t, "w1", "w2")
	hooks := deterministicHooks(0)
	var attempts sync.Map
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		if w.Name() == "lu" {
			n, _ := attempts.LoadOrStore("lu", new(int))
			*(n.(*int))++
			return nil, fmt.Errorf("modeled cell failure")
		}
		return measure.FromMap(map[string]float64{"cycles": 1}), nil
	}
	registerSchedExperiment(t, fx, "cluster_cellerr", hooks)

	_, err := fx.Run(context.Background(), Config{
		Experiment: "cluster_cellerr",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	})
	if err == nil {
		t.Fatal("run succeeded despite failing cell")
	}
	for _, want := range []string{"splash/lu", "modeled cell failure", "remote w"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if n, ok := attempts.Load("lu"); !ok || *(n.(*int)) != 1 {
		t.Errorf("failing cell was retried; genuine failures must abort, not fail over")
	}
}

// TestClusterLatencySkew injects asymmetric network latency: the slow
// host simply absorbs fewer cells, and the stored output stays
// byte-identical to the serial run.
func TestClusterLatencySkew(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_latency",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_latency", deterministicHooks(0), cfg)

	fx, cluster := clusterFex(t, "w1", "w2")
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetLatency(30 * time.Millisecond)
	registerSchedExperiment(t, fx, "cluster_latency", deterministicHooks(0))

	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(lg) != wantLog || string(csv) != wantCSV {
		t.Error("latency-skewed cluster output differs from serial run")
	}
}

// TestClusterBuildsStayOnWorkers proves cells really execute against the
// workers' private containers: after a cluster run the coordinator's own
// build cache is empty — every artifact was compiled by a worker build
// system.
func TestClusterBuildsStayOnWorkers(t *testing.T) {
	fx, _ := clusterFex(t, "w1", "w2")
	installAll(t, fx, "gcc-6.1")
	report, err := fx.Run(context.Background(), Config{
		Experiment: "micro",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"array_read", "branch_heavy"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Measurements != 2 {
		t.Fatalf("%d measurements, want 2", report.Measurements)
	}
	if got := fx.BuildSystem().CachedArtifacts(); got != 0 {
		t.Errorf("coordinator build cache holds %d artifacts; cluster cells must build on workers", got)
	}
}

// TestClusterUnknownBenchmarkStillFails asserts config validation happens
// before any remote dispatch.
func TestClusterUnknownBenchmarkStillFails(t *testing.T) {
	fx, _ := clusterFex(t, "w1")
	registerSchedExperiment(t, fx, "cluster_badbench", deterministicHooks(0))
	_, err := fx.Run(context.Background(), Config{
		Experiment: "cluster_badbench",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"no_such_bench"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1"},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmarks") {
		t.Errorf("got %v", err)
	}
}

// TestClusterCorruptShardTransferFailsCell injects transfer corruption on
// a host: the coordinator must validate the fetched shard text before
// merging it and fail the cell with host and cell attribution — a
// corrupted transfer must never leak garbage records into the run log.
func TestClusterCorruptShardTransferFailsCell(t *testing.T) {
	fx, cluster := clusterFex(t, "w1")
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetCorruptOutput(func(s string) string { return "<<garbled transfer>>\n" + s })
	registerSchedExperiment(t, fx, "cluster_corrupt", deterministicHooks(0))

	_, err = fx.Run(context.Background(), Config{
		Experiment: "cluster_corrupt",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
		Hosts:      []string{"w1"},
	})
	if err == nil {
		t.Fatal("run succeeded despite corrupted shard transfers")
	}
	for _, want := range []string{"host w1", "cell splash/fft [gcc_native]", "corrupt shard transfer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestClusterTruncatedShardTransferFailsCell cuts the last three bytes
// off every transfer from w1, so the shard's last record arrives as
// "cycles=40" instead of "cycles=4010\n": well-formed, plausible and
// wrong. Shard text that does not end in a newline is a cut transfer; the
// cell must fail with host attribution, nothing may be persisted, and a
// clean -resume must re-measure the cell rather than replay it.
func TestClusterTruncatedShardTransferFailsCell(t *testing.T) {
	fx, cluster := clusterFex(t, "w1")
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetCorruptOutput(func(s string) string { return s[:len(s)-3] })
	hooks := deterministicHooks(0)
	registerSchedExperiment(t, fx, "cluster_truncated", hooks)
	cfg := Config{
		Experiment: "cluster_truncated",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1"},
	}
	_, err = fx.Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("run succeeded despite a truncated shard transfer")
	}
	for _, want := range []string{"host w1", "cell splash/fft [gcc_native]", "corrupt shard transfer", "truncated"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	w1.SetCorruptOutput(nil)
	resume := cfg
	resume.Resume = true
	replayed := -1
	report, err := fx.RunWithHooks(context.Background(), resume, RunHooks{
		Progress: func(ev ProgressEvent) {
			if ev.Stage == "plan" {
				replayed = ev.Replayed
			}
		},
	})
	if err != nil {
		t.Fatalf("clean -resume after a truncated transfer failed: %v", err)
	}
	if replayed != 0 {
		t.Errorf("clean -resume replayed %d cells, want 0 (the truncated cell re-measured)", replayed)
	}
	wantLog, wantCSV := serialReference(t, "cluster_truncated", hooks, cfg)
	for _, f := range []struct{ path, want string }{{report.RunLogPath, wantLog}, {report.RunCSVPath, wantCSV}} {
		got, err := fx.ReadResult(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != f.want {
			t.Errorf("%s after -resume differs from serial:\n--- serial ---\n%s\n--- resumed ---\n%s", f.path, f.want, got)
		}
	}
}

// TestClusterCorruptTransferDoesNotPersist closes the durability hole:
// a corrupted transfer must not be persisted to the result store either,
// or a later -resume would replay the garbage. After the failed run, a
// clean retry on the same framework must re-measure and succeed.
func TestClusterCorruptTransferDoesNotPersist(t *testing.T) {
	fx, cluster := clusterFex(t, "w1")
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetCorruptOutput(func(s string) string { return strings.ReplaceAll(s, "|", "?") })
	registerSchedExperiment(t, fx, "cluster_heal", deterministicHooks(0))
	cfg := Config{
		Experiment: "cluster_heal",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
		Hosts:      []string{"w1"},
	}
	if _, err := fx.Run(context.Background(), cfg); err == nil {
		t.Fatal("run succeeded despite corrupted shard transfers")
	}

	w1.SetCorruptOutput(nil)
	resume := cfg
	resume.Resume = true
	report, err := fx.Run(context.Background(), resume)
	if err != nil {
		t.Fatalf("clean retry after corruption failed: %v", err)
	}
	if report.Measurements != 1 {
		t.Fatalf("%d measurements after retry, want 1 (re-measured, not replayed garbage)", report.Measurements)
	}
}
