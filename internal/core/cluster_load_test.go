package core

import (
	"context"
	"strings"
	"testing"
	"time"

	fexclock "fex/internal/clock"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/workload"
)

// This file proves the cluster scheduler's behaviour under load: hosts
// pulling cells from the one shared queue route work around a slow host,
// the speculation-wake fixes hold, and builds share artifacts across
// experiments with the same config hash. The reactive half (probation,
// deadlines, eviction) lives in cluster_fault_test.go.

// TestMedianDuration pins the even-count median: the speculation
// threshold must average the two middle elements, not take the upper one
// (which biased the straggler cutoff high on even sample counts).
func TestMedianDuration(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tests := []struct {
		name string
		durs []time.Duration
		want time.Duration
	}{
		{"single", []time.Duration{ms(10)}, ms(10)},
		{"odd", []time.Duration{ms(1), ms(2), ms(9)}, ms(2)},
		{"even_pair", []time.Duration{ms(10), ms(20)}, ms(15)},
		{"even_four", []time.Duration{ms(1), ms(2), ms(4), ms(100)}, ms(3)},
		{"even_skewed", []time.Duration{ms(1), ms(1), ms(1), ms(1), ms(1), ms(99)}, ms(1)},
		{"odd_five", []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5)}, ms(3)},
		{"even_odd_sum", []time.Duration{ms(1), ms(2)}, 1500 * time.Microsecond},
	}
	for _, tc := range tests {
		if got := medianDuration(tc.durs); got != tc.want {
			t.Errorf("%s: medianDuration(%v) = %v, want %v", tc.name, tc.durs, got, tc.want)
		}
	}
}

// TestSpecTimerArmsWithoutIdleWorkers is the regression test for the
// speculation wake gap: the detector used to re-arm its wake timer only
// when an idle worker existed at scan time, so a straggler crossing its
// threshold while every worker was busy produced no wakeup. The re-arm
// is now unconditional — on a virtual clock, a pending under-threshold
// straggler with an empty idle pool must still register exactly one
// timer, and advancing past the threshold must deliver the wake.
func TestSpecTimerArmsWithoutIdleWorkers(t *testing.T) {
	vclk := fexclock.NewVirtual(fixedNow())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &sched{
		rc:  &RunContext{Config: Config{}},
		p:   &runPlan{cells: make([]cell, 1), shards: make([]*runlog.Shard, 1)},
		clk: vclk,
		ctx: ctx,
		// Three completed cells of zero modeled duration: the threshold is
		// the specMinElapsed floor. One non-speculative placement is in
		// flight, under threshold, and no worker is idle.
		durations: []time.Duration{0, 0, 0},
		workers:   []*worker{{remote: &clusterWorker{}, pl: &placement{cell: 0, worker: 0, start: vclk.Now()}}},
		specWake:  make(chan struct{}, 1),
	}
	s.maybeSpeculate()
	if got := vclk.Pending(); got != 1 {
		t.Fatalf("wake timer registrations with empty idle pool = %d, want 1 (unconditional re-arm)", got)
	}

	vclk.Advance(specMinElapsed)
	select {
	case <-s.specWake:
	case <-time.After(5 * time.Second):
		t.Fatal("speculation wake not delivered after advancing past the threshold")
	}
	s.stopSpecTimer()
}

// TestBackToPoolWakesSpeculation pins the second half of the fix: a
// worker returning to the idle pool nudges the straggler detector (the
// freed worker is exactly the capacity speculation was waiting for).
func TestBackToPoolWakesSpeculation(t *testing.T) {
	s := &sched{
		workers:  []*worker{{hostState: hostState{phase: hostHealthy}}, {hostState: hostState{phase: hostProbation}}},
		specWake: make(chan struct{}, 1),
	}
	s.backToPool(0)
	select {
	case <-s.specWake:
	default:
		t.Fatal("healthy worker returning to the pool did not wake the straggler detector")
	}
	if len(s.idle) != 1 || s.idle[0] != 0 {
		t.Fatalf("idle pool = %v, want [0]", s.idle)
	}
	// A non-healthy worker neither pools nor wakes.
	s.backToPool(1)
	select {
	case <-s.specWake:
		t.Fatal("probation worker woke the straggler detector")
	default:
	}
	if len(s.idle) != 1 {
		t.Fatalf("probation worker entered the idle pool: %v", s.idle)
	}
}

// TestSpeculationPicksLowestStragglerCell pins the straggler choice: with
// two cells past the threshold and one idle host, the detector duplicates
// the lower-index cell, whatever the worker order, so the choice repeats
// from run to run.
func TestSpeculationPicksLowestStragglerCell(t *testing.T) {
	vclk := fexclock.NewVirtual(fixedNow())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster := remote.NewCluster()
	var workers []*worker
	for _, name := range []string{"w1", "w2", "w3"} {
		h, err := cluster.AddHost(name)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, &worker{remote: &clusterWorker{host: h}})
	}
	// The higher-index cell runs on the lower-index worker, so worker
	// order alone would pick the wrong straggler.
	start := vclk.Now()
	workers[0].pl = &placement{cell: 1, worker: 0, start: start}
	workers[1].pl = &placement{cell: 0, worker: 1, start: start}
	benches, err := newSchedFex(t).Registry().Suite("splash")
	if err != nil {
		t.Fatal(err)
	}
	s := &sched{
		rc:        &RunContext{Config: Config{}},
		vrc:       &RunContext{Config: Config{}},
		p:         &runPlan{cells: makeCells([]string{"gcc_native"}, benches[:2], ""), shards: make([]*runlog.Shard, 2)},
		clk:       vclk,
		ctx:       ctx,
		durations: []time.Duration{0, 0, 0},
		workers:   workers,
		idle:      []int{2},
		attempted: []map[string]bool{{"w2": true}, {"w1": true}},
		events:    make(chan func(), 1),
		specWake:  make(chan struct{}, 1),
	}
	vclk.Advance(specMinElapsed)
	s.maybeSpeculate()
	pl := workers[2].pl
	if pl == nil || !pl.speculative {
		t.Fatalf("idle host got no speculative copy: %+v", pl)
	}
	if pl.cell != 0 {
		t.Fatalf("speculated cell %d, want the lower-index straggler 0", pl.cell)
	}
	if len(s.idle) != 0 {
		t.Errorf("idle pool after speculation = %v, want empty", s.idle)
	}
	// The copy's run-cell command is unregistered on the bare host; its
	// result only has to reach the loop's event stream.
	<-s.events
	s.stopSpecTimer()
}

// TestClusterWorkStealingDrainsBacklog runs 8 cells on two hosts, one of
// which serves each cell 30ms slower. No cell waits behind the slow host:
// the fast host keeps pulling from the shared queue while the slow one is
// busy, so it completes more cells, and neither host steals (the name is
// kept from the per-host backlogs and stealing the queue replaced). The
// stored bytes equal the serial run's.
func TestClusterWorkStealingDrainsBacklog(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_steal",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu", "radix", "ocean"},
		Input:       workload.SizeTest,
		Verbose:     true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true, // the slow host's cell is not duplicated
	}
	wantLog, wantCSV := serialReference(t, "cluster_steal", deterministicHooks(0), cfg)

	cluster := remote.NewCluster()
	for _, h := range cfg.Hosts {
		if _, err := cluster.Ensure(h); err != nil {
			t.Fatal(err)
		}
	}
	buf := &faultLog{}
	fx, err := New(Options{Now: fixedNow, Cluster: cluster, Verbose: buf})
	if err != nil {
		t.Fatal(err)
	}
	registerSchedExperiment(t, fx, "cluster_steal", deterministicHooks(0))
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetCommandLatency(cmdRunCell, 30*time.Millisecond)

	capture := &hostsCapture{}
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: capture.hook})
	if err != nil {
		t.Fatal(err)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "slow host backlog")

	w1st, w2st := capture.find(t, "w1"), capture.find(t, "w2")
	if w1st.Steals != 0 || w2st.Steals != 0 {
		t.Errorf("hosts report steals: w1=%+v w2=%+v", w1st, w2st)
	}
	if strings.Contains(buf.String(), "stole") {
		t.Errorf("steal line in verbose log:\n%s", buf.String())
	}
	if w2st.Cells <= w1st.Cells {
		t.Errorf("slow host completed %d cells, fast host %d — the fast host should drain the queue", w1st.Cells, w2st.Cells)
	}
	if w1st.Cells+w2st.Cells != 8 {
		t.Errorf("cells completed = %d + %d, want 8 total", w1st.Cells, w2st.Cells)
	}
}

// TestClusterLoadAwareVsRoundRobin runs 9 cells on three hosts, one of
// which serves each cell 40ms slower. Round-robin placement would deal
// the slow host its share of 3 cells and then wait for it; hosts pulling
// from the shared queue leave it only the cell it took first, while the
// fast hosts drain the rest. The stored bytes equal the serial run's:
// placement moves cells, never bytes.
func TestClusterLoadAwareVsRoundRobin(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_skew",
		BuildTypes:  []string{"gcc_native", "clang_native", "gcc_asan"},
		Benchmarks:  []string{"fft", "lu", "radix"},
		Input:       workload.SizeTest,
		Hosts:       []string{"w1", "w2", "w3"},
		NoSpeculate: true, // the slow host's cell is not duplicated
	}
	wantLog, wantCSV := serialReference(t, "cluster_skew", deterministicHooks(0), cfg)
	fx, cluster := clusterFex(t, cfg.Hosts...)
	registerSchedExperiment(t, fx, "cluster_skew", deterministicHooks(0))
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	w1.SetCommandLatency(cmdRunCell, 40*time.Millisecond)

	capture := &hostsCapture{}
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: capture.hook})
	if err != nil {
		t.Fatal(err)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "skewed fleet")

	total := 0
	for _, name := range cfg.Hosts {
		hs := capture.find(t, name)
		if hs.State != "healthy" || hs.Steals != 0 {
			t.Errorf("host %+v, want healthy with 0 steals", hs)
		}
		total += hs.Cells
	}
	if total != 9 {
		t.Errorf("hosts completed %d cells, want 9", total)
	}
	if slow := capture.find(t, "w1").Cells; slow >= 3 {
		t.Errorf("slow host completed %d cells, want fewer than its round-robin share of 3", slow)
	}
}

// TestBuildSharedAcrossExperiments proves cross-experiment artifact
// sharing: within one framework instance, the first run of a build
// configuration compiles its artifacts and later runs under the same
// config hash reuse them — zero new compilations, cache intact. A mode
// change that alters the hash (-d) forces the classic clean rebuild.
func TestBuildSharedAcrossExperiments(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1")
	cfg := Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
		ModelTime:  true,
	}
	if _, err := fx.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	compilesCold := fx.BuildSystem().Compiles()
	cachedCold := fx.BuildSystem().CachedArtifacts()
	if compilesCold == 0 || cachedCold == 0 {
		t.Fatalf("cold run compiled %d artifacts (%d cached), want > 0", compilesCold, cachedCold)
	}

	// Second invocation, same modes, different benchmark mix: the shared
	// artifacts serve the overlap and only the new benchmark compiles.
	second := cfg
	second.Benchmarks = []string{"fft", "lu", "radix"}
	if _, err := fx.Run(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	delta := fx.BuildSystem().Compiles() - compilesCold
	if delta == 0 {
		t.Error("second run compiled nothing — radix was never built")
	}
	if got := fx.BuildSystem().CachedArtifacts(); got <= cachedCold {
		t.Errorf("artifact cache shrank across runs: %d -> %d (CleanBuild ran despite matching config hash)", cachedCold, got)
	}

	// Identical re-run: fully warm, zero compilations.
	before := fx.BuildSystem().Compiles()
	if _, err := fx.Run(context.Background(), second); err != nil {
		t.Fatal(err)
	}
	if n := fx.BuildSystem().Compiles() - before; n != 0 {
		t.Errorf("warm identical run compiled %d artifacts, want 0 (shared)", n)
	}

	// A hash change (-d) must rebuild clean, not reuse release artifacts.
	debugCfg := second
	debugCfg.Debug = true
	before = fx.BuildSystem().Compiles()
	if _, err := fx.Run(context.Background(), debugCfg); err != nil {
		t.Fatal(err)
	}
	if n := fx.BuildSystem().Compiles() - before; n == 0 {
		t.Error("debug run compiled nothing — stale release artifacts were reused across a config-hash change")
	}
}
