package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fex/internal/buildsys"
	"fex/internal/remote"
	"fex/internal/workload"
)

// This file covers the lifetime of cluster host images (cluster.go): one
// provisioning per host per image key across a campaign of runs, fresh
// images whenever the key changes, failed provisionings retried, and
// concurrent runs on shared hosts kept apart. Every run's log and CSV
// must stay byte-identical to a serial run of the same configuration.

// runArtifacts runs cfg on fx and returns the run's stored log and CSV.
func runArtifacts(t *testing.T, fx *Fex, cfg Config) (string, string) {
	t.Helper()
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.String(), err)
	}
	lg, err := fx.ReadResult(report.RunLogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.RunCSVPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(lg), string(csv)
}

// serialArtifacts runs cfg serially on ref and returns its log and CSV.
func serialArtifacts(t *testing.T, ref *Fex, cfg Config) (string, string) {
	t.Helper()
	cfg.Hosts = nil
	return runArtifacts(t, ref, cfg)
}

// sameBytes reports a log or CSV that differs from its serial reference.
func sameBytes(t *testing.T, label, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: %s differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", label, what, want, got)
	}
}

// TestClusterHostImageReusedAcrossRuns pins the image counters of a
// 10-run -hosts w1,w2 campaign on one framework: each host is
// provisioned once (20 before images outlived the run), and each kernel
// configuration executes at most once per host, whichever host takes
// its cells (40 before: every run re-executed every kernel on a fresh
// image).
func TestClusterHostImageReusedAcrossRuns(t *testing.T) {
	fx, runs := countingMemoFex(t)
	ref := memoFex(t)
	base := Config{
		Experiment:  "splash",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu"},
		Threads:     []int{1, 2},
		Input:       workload.SizeTest,
		ModelTime:   true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true,
	}
	for reps := 1; reps <= 10; reps++ {
		cfg := base
		cfg.Reps = reps
		lg, csv := runArtifacts(t, fx, cfg)
		wantLog, wantCSV := serialArtifacts(t, ref, cfg)
		sameBytes(t, cfg.String(), "log", lg, wantLog)
		sameBytes(t, cfg.String(), "CSV", csv, wantCSV)
	}
	if n := fx.provisions.Load(); n != 2 {
		t.Errorf("%d host provisionings, want 2", n)
	}
	// 2 benchmarks × 2 thread counts: each configuration runs at least
	// once, and at most once on each of the 2 hosts' memos.
	if n := runs.Load(); n < 4 || n > 8 {
		t.Errorf("host kernels ran %d times, want 4 to 8", n)
	}
	if n := fx.BuildSystem().Compiles(); n != 0 {
		t.Errorf("coordinator compiled %d artifacts; cluster cells must build on hosts", n)
	}
}

// TestClusterImageInstallBetweenRuns installs a compiler between two
// cluster runs whose cost-model hash is the same: the installed set is
// part of the image key, so the second run provisions fresh images that
// see the new compiler instead of failing its cells as not installed.
func TestClusterImageInstallBetweenRuns(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	ref := newSchedFex(t)
	installAll(t, ref, "gcc-6.1", "clang-3.8.0")
	cfg := Config{
		Experiment:  "splash",
		BuildTypes:  []string{"gcc_native"},
		Benchmarks:  []string{"fft", "lu"},
		Threads:     []int{1, 2},
		Reps:        2,
		Input:       workload.SizeTest,
		ModelTime:   true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true,
	}
	lg, csv := runArtifacts(t, fx, cfg)
	wantLog, wantCSV := serialArtifacts(t, ref, cfg)
	sameBytes(t, "gcc only", "log", lg, wantLog)
	sameBytes(t, "gcc only", "CSV", csv, wantCSV)

	if err := fx.InstallPrerequisites("clang_native"); err != nil {
		t.Fatal(err)
	}
	cfg.BuildTypes = []string{"gcc_native", "clang_native"}
	lg, csv = runArtifacts(t, fx, cfg)
	wantLog, wantCSV = serialArtifacts(t, ref, cfg)
	sameBytes(t, "after install", "log", lg, wantLog)
	sameBytes(t, "after install", "CSV", csv, wantCSV)
	if n := fx.provisions.Load(); n != 4 {
		t.Errorf("%d host provisionings, want 4 (2 per installed set)", n)
	}
}

// TestClusterImageCostModelFlip flips -d between cluster runs: each flip
// changes the cost-model hash, so the coordinator rebuilds clean and
// drops the host images with its own cache, and every run provisions
// both hosts again.
func TestClusterImageCostModelFlip(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0")
	ref := newSchedFex(t)
	installAll(t, ref, "gcc-6.1", "clang-3.8.0")
	cfg := Config{
		Experiment:  "splash",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu"},
		Reps:        2,
		Input:       workload.SizeTest,
		ModelTime:   true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true,
	}
	for i, debug := range []bool{false, true, false} {
		cfg.Debug = debug
		lg, csv := runArtifacts(t, fx, cfg)
		wantLog, wantCSV := serialArtifacts(t, ref, cfg)
		sameBytes(t, cfg.String(), "log", lg, wantLog)
		sameBytes(t, cfg.String(), "CSV", csv, wantCSV)
		if n, want := fx.provisions.Load(), int64(2*(i+1)); n != want {
			t.Errorf("after run %d (debug=%t): %d host provisionings, want %d", i+1, debug, n, want)
		}
	}
}

// TestClusterImageShipsCoordinatorMakefiles adds a build type on the
// coordinator only, as examples/quickstart does: hosts assemble their
// build systems from the shipped makefiles, so the coordinator's own
// must travel with the image. A -hosts w1 run then matches serial byte
// for byte. Editing the makefile between runs changes the image key, so
// w1 is provisioned again with the new text, and the coordinator
// rebuilds with it too.
func TestClusterImageShipsCoordinatorMakefiles(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	ref := newSchedFex(t)
	installAll(t, ref, "gcc-6.1")
	cfg := Config{
		Experiment:  "splash",
		BuildTypes:  []string{"gcc_native", "gcc_hardened"},
		Benchmarks:  []string{"fft", "lu"},
		Reps:        2,
		Input:       workload.SizeTest,
		ModelTime:   true,
		Hosts:       []string{"w1"},
		NoSpeculate: true,
	}
	var (
		csvs []string
		keys []imageKey
	)
	for i, text := range []string{
		"include gcc_native.mk\nCFLAGS += -fstack-protector\n",
		"include gcc_native.mk\nCFLAGS += -fsanitize=address\nLDFLAGS += -fsanitize=address\n",
	} {
		for _, f := range []*Fex{fx, ref} {
			if err := f.BuildSystem().AddMakefileText("gcc_hardened.mk", buildsys.LayerExperiment, text); err != nil {
				t.Fatal(err)
			}
		}
		key, err := fx.imageKey(fx.newBuildIdentity(cfg))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		lg, csv := runArtifacts(t, fx, cfg)
		wantLog, wantCSV := serialArtifacts(t, ref, cfg)
		sameBytes(t, fmt.Sprintf("makefile version %d", i+1), "log", lg, wantLog)
		sameBytes(t, fmt.Sprintf("makefile version %d", i+1), "CSV", csv, wantCSV)
		if n, want := fx.provisions.Load(), int64(i+1); n != want {
			t.Errorf("after makefile version %d: %d host provisionings, want %d", i+1, n, want)
		}
		csvs = append(csvs, csv)
	}
	if keys[0].names(keys[1]) {
		t.Error("the makefile edit left the image key unchanged")
	}
	if csvs[0] == csvs[1] {
		t.Error("the makefile edit did not change the measurements; the test cannot tell a stale image")
	}
}

// TestClusterImageProvisionFaultRetried fails w1's provisioning in one
// run: w1 is evicted for that run only, the failed image is not kept,
// and the next run provisions w1 again and w1 takes cells.
func TestClusterImageProvisionFaultRetried(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_reprov",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu"},
		Reps:        2,
		Input:       workload.SizeTest,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true,
	}
	wantLog, wantCSV := serialReference(t, "cluster_reprov", deterministicHooks(0), cfg)
	fx, _ := clusterFex(t, "w1", "w2")
	registerSchedExperiment(t, fx, "cluster_reprov", deterministicHooks(0))

	fx.Container().SetCloneFault("worker-w1", errors.New("no space left on device"))
	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with provisioning fault: %v", err)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "provisioning fault")
	if w1 := snap.find(t, "w1"); w1.State != "evicted" || w1.Cells != 0 {
		t.Errorf("faulted w1 %+v, want evicted with 0 cells", w1)
	}

	fx.Container().SetCloneFault("worker-w1", nil)
	for run := 2; run <= 3; run++ {
		snap = hostsCapture{}
		report, err = fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		compareToSerial(t, fx, report, wantLog, wantCSV, "after the fault cleared")
		if w1 := snap.find(t, "w1"); w1.State != "healthy" || w1.Cells < 1 {
			t.Errorf("run %d: w1 %+v, want healthy with at least 1 cell", run, w1)
		}
	}
	// The failed attempt and w2 in run 1, w1's retry in run 2, none in
	// run 3.
	if n := fx.provisions.Load(); n != 3 {
		t.Errorf("%d host provisionings, want 3", n)
	}
}

// TestClusterConcurrentRunsShareHosts runs two experiments concurrently
// on one framework over the same hosts. Each run routes its cells to its
// own handler on the shared hosts, so each stores exactly the log and
// CSV of its serial reference.
func TestClusterConcurrentRunsShareHosts(t *testing.T) {
	hooks := deterministicHooks(time.Millisecond)
	cfgs := []Config{{
		Experiment: "cluster_conc_a",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Reps:       3,
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	}, {
		Experiment: "cluster_conc_b",
		BuildTypes: []string{"clang_native", "gcc_native"},
		Benchmarks: []string{"barnes", "ocean", "radix"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2"},
	}}
	fx, cluster := clusterFex(t, "w1", "w2")
	wantLogs := make([]string, len(cfgs))
	wantCSVs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		wantLogs[i], wantCSVs[i] = serialReference(t, cfg.Experiment, hooks, cfg)
		registerSchedExperiment(t, fx, cfg.Experiment, hooks)
	}

	logs := make([]string, len(cfgs))
	csvs := make([]string, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			report, err := fx.Run(context.Background(), cfg)
			if err != nil {
				errs[i] = err
				return
			}
			lg, err := fx.ReadResult(report.RunLogPath)
			if err != nil {
				errs[i] = err
				return
			}
			csv, err := fx.ReadResult(report.RunCSVPath)
			logs[i], csvs[i], errs[i] = string(lg), string(csv), err
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.Experiment, errs[i])
		}
		sameBytes(t, cfg.Experiment, "log", logs[i], wantLogs[i])
		sameBytes(t, cfg.Experiment, "CSV", csvs[i], wantCSVs[i])
	}
	// Both runs ended: no run-cell command is left on the hosts.
	for _, name := range []string{"w1", "w2"} {
		h, err := cluster.Ensure(name)
		if err != nil {
			t.Fatal(err)
		}
		job := remote.Job{Command: cmdRunCell, Args: map[string]string{"run": "1", "cell": "0"}}
		if _, err := h.Run(context.Background(), job); !errors.Is(err, remote.ErrUnknownCommand) {
			t.Errorf("host %s: run-cell after both runs ended returned %v, want %v", name, err, remote.ErrUnknownCommand)
		}
	}
}
