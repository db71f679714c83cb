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

// This file proves the proactive half of the cluster scheduler:
// load-aware placement (cells routed by per-host cost EWMA × backlog),
// work-stealing by idle workers, the speculation-wake fixes, and the
// cross-experiment build-artifact sharing that rides on the same config
// hash. The reactive half (probation, deadlines, eviction) lives in
// cluster_fault_test.go.

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

// TestHostStateEWMA covers the per-host load averages placement scores
// by: the first observation seeds an average, each later one moves it by
// alpha = 3/10, negative durations are ignored, and the RTT average is
// seeded and updated the same way, independently of the cell average.
func TestHostStateEWMA(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tests := []struct {
		name      string
		cells     []time.Duration
		rtts      []time.Duration
		wantCell  time.Duration
		wantRTT   time.Duration
		wantCells int
	}{
		{"empty", nil, nil, 0, 0, 0},
		{"cell_seeds", []time.Duration{ms(100)}, nil, ms(100), 0, 1},
		// 100ms + (200ms-100ms)*3/10 = 130ms
		{"cell_alpha", []time.Duration{ms(100), ms(200)}, nil, ms(130), 0, 2},
		{"cell_negative_ignored", []time.Duration{ms(100), -ms(50), ms(200)}, nil, ms(130), 0, 2},
		{"negative_never_seeds", []time.Duration{-ms(5)}, []time.Duration{-ms(5)}, 0, 0, 0},
		{"rtt_seeds", nil, []time.Duration{ms(10)}, 0, ms(10), 0},
		{"rtt_alpha", nil, []time.Duration{ms(10), ms(20)}, 0, ms(13), 0},
		{"independent", []time.Duration{ms(100), ms(200)}, []time.Duration{ms(10), ms(20)}, ms(130), ms(13), 2},
	}
	for _, tc := range tests {
		var h hostState
		for _, d := range tc.cells {
			h.observeCell(d)
		}
		for _, d := range tc.rtts {
			h.observeRTT(d)
		}
		if h.cellEWMA != tc.wantCell || h.rttEWMA != tc.wantRTT || h.samples != tc.wantCells {
			t.Errorf("%s: cell EWMA %v, RTT EWMA %v, %d samples; want %v, %v, %d",
				tc.name, h.cellEWMA, h.rttEWMA, h.samples, tc.wantCell, tc.wantRTT, tc.wantCells)
		}
		if got := h.cost(); got != tc.wantCell+tc.wantRTT {
			t.Errorf("%s: cost %v, want %v", tc.name, got, tc.wantCell+tc.wantRTT)
		}
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

// TestClusterWorkStealingDrainsBacklog proves stealing end to end: with
// one chronically slow host, the fast host empties its own queue and
// then takes cells queued behind the slow one. The steal shows up in the
// Steals counter and the -v stream, the slow host completes fewer cells
// than the fast one, and the stored bytes stay byte-identical to the
// serial reference.
func TestClusterWorkStealingDrainsBacklog(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_steal",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu", "radix", "ocean"},
		Input:       workload.SizeTest,
		Verbose:     true,
		Hosts:       []string{"w1", "w2"},
		NoSpeculate: true, // isolate stealing from the straggler detector
	}
	wantLog, wantCSV := serialReference(t, "cluster_steal", deterministicHooks(0), cfg)

	cluster := remote.NewCluster()
	for _, h := range []string{"w1", "w2"} {
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
	// Big skew: any cell queued behind w1 waits ~30ms while w2 finishes in
	// well under a millisecond, so w2 always runs dry and steals.
	w1.SetCommandLatency(cmdRunCell, 30*time.Millisecond)

	capture := &hostsCapture{}
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: capture.hook})
	if err != nil {
		t.Fatal(err)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "work stealing")

	w1st, w2st := capture.find(t, "w1"), capture.find(t, "w2")
	if w2st.Steals == 0 {
		t.Errorf("fast host stole no cells: w1=%+v w2=%+v\nverbose:\n%s", w1st, w2st, buf.String())
	}
	if !strings.Contains(buf.String(), "stole") {
		t.Errorf("no steal line in verbose log:\n%s", buf.String())
	}
	if w2st.Cells <= w1st.Cells {
		t.Errorf("slow host completed %d cells, fast host %d — stealing should shift load to the fast host", w1st.Cells, w2st.Cells)
	}
	if w1st.Cells+w2st.Cells != 8 {
		t.Errorf("cells completed = %d + %d, want 8 total", w1st.Cells, w2st.Cells)
	}
}

// TestClusterLoadAwareVsRoundRobin compares placement policies on a
// skewed host set: with load-aware placement and stealing, the slow host
// absorbs fewer cells than it does under the -no-load-aware -no-steal
// ablation (which deals it its full round-robin share). Both runs must
// store bytes identical to each other — policy moves cells, never bytes.
func TestClusterLoadAwareVsRoundRobin(t *testing.T) {
	base := Config{
		Experiment:  "cluster_policy",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu", "radix", "ocean"},
		Input:       workload.SizeTest,
		Hosts:       []string{"w1", "w2", "w3"},
		NoSpeculate: true,
	}

	slowCells := func(t *testing.T, cfg Config) (int, string) {
		t.Helper()
		cluster := remote.NewCluster()
		for _, h := range cfg.Hosts {
			if _, err := cluster.Ensure(h); err != nil {
				t.Fatal(err)
			}
		}
		fx, err := New(Options{Now: fixedNow, Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		registerSchedExperiment(t, fx, "cluster_policy", deterministicHooks(0))
		w1, err := cluster.Host("w1")
		if err != nil {
			t.Fatal(err)
		}
		w1.SetCommandLatency(cmdRunCell, 25*time.Millisecond)
		capture := &hostsCapture{}
		report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: capture.hook})
		if err != nil {
			t.Fatal(err)
		}
		lg, err := fx.ReadResult(report.LogPath)
		if err != nil {
			t.Fatal(err)
		}
		return capture.find(t, "w1").Cells, string(lg)
	}

	aware, awareLog := slowCells(t, base)

	ablation := base
	ablation.NoLoadAware = true
	ablation.NoSteal = true
	rr, rrLog := slowCells(t, ablation)

	// 8 cells over 3 hosts round-robin deals the slow host at least 2;
	// load-aware placement with stealing routes around it, so it keeps at
	// most the cell(s) it was already running.
	if aware >= rr {
		t.Errorf("slow host completed %d cells load-aware vs %d round-robin — placement is not load-aware", aware, rr)
	}
	if awareLog != rrLog {
		t.Errorf("policy changed stored bytes:\n--- load-aware ---\n%s\n--- round-robin ---\n%s", awareLog, rrLog)
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
