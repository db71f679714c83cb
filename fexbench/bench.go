package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"fex/internal/core"
)

// startedAt is the run-log start time every measured framework stamps.
// A fixed stamp keeps logs, and so log and state byte counts, identical
// across runs of one seed.
var startedAt = time.Date(2017, 6, 26, 9, 0, 0, 0, time.UTC)

// newFramework constructs a framework with its compilers installed: the
// set-up every `fex run` pays before its first cell.
func newFramework() (*core.Fex, error) {
	fx, err := core.New(core.Options{Now: func() time.Time { return startedAt }})
	if err != nil {
		return nil, fmt.Errorf("fexbench: new framework: %w", err)
	}
	if err := fx.InstallPrerequisites(buildTypes...); err != nil {
		return nil, fmt.Errorf("fexbench: install compilers: %w", err)
	}
	return fx, nil
}

// workloadRunner is one benchmark workload. setup builds a fresh
// starting state, replacing any earlier one; measure runs operations on
// it for the pass's window and records what it observes.
type workloadRunner interface {
	setup() error
	measure(p *pass) error
	close()
}

// check is one operation output awaiting comparison with the serial
// tier's output for the same config.
type check struct {
	op  string
	cfg core.Config
	csv []byte
}

// pass is one measurement of a workload: a series of set-ups followed by
// the operations that fill its window.
type pass struct {
	tr     *tracer // nil: tracing off
	prober *prober // set when tracing
	window time.Duration
	// counting keeps the exact per-layer counters; only an untraced pass
	// of a traced invocation counts, so neither probes nor counting
	// perturb what the other measures.
	counting bool

	setupS    []float64
	latencyMS []float64 // one per operation
	cells     int       // cells settled by the operations
	busy      time.Duration
	cellRate  []float64 // cells per second of each unit of work
	capacity  float64   // serve-stream: runs per second at saturation

	attempted, failed int
	failures          []string
	checks            []check

	samples map[string][]float64 // per-layer timings; the median is reported
	counts  map[string]int64     // per-layer counters
	cellGap []float64

	memBefore runtime.MemStats
	heapMB    []float64 // live heap, sampled through the pass
	rssMB     []float64 // resident set size, sampled through the pass
	goAllocs  float64
	goAllocMB float64
	goGC      float64
}

func newPass(tr *tracer, window time.Duration) *pass {
	return &pass{tr: tr, window: window, samples: map[string][]float64{}, counts: map[string]int64{}}
}

func (p *pass) sample(name string, v float64) {
	if p.tr != nil {
		p.samples[name] = append(p.samples[name], v)
	}
}

// count adds to a counter.
func (p *pass) count(name string, n int64) {
	if p.counting {
		p.counts[name] += n
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// opDone records one finished operation.
func (p *pass) opDone(latency time.Duration, cells int) {
	p.latencyMS = append(p.latencyMS, ms(latency))
	p.cells += cells
	p.busy += latency
}

// unitDone records the throughput of one unit of work: one Run, one
// iteration or one served run. Throughput is reported as the median over
// units, so a slow stretch of a run does not move it. Every run of a
// workload makes the same multiset of units, whatever the seed's order.
func (p *pass) unitDone(cells int, d time.Duration) {
	if d > 0 {
		p.cellRate = append(p.cellRate, float64(cells)/d.Seconds())
	}
}

// units is how many units of work of the given nominal duration fill a
// window: at least one. Every run of a workload at one window size does
// the same work, however fast the machine or the program is, so runs of
// two commits compare like with like. Nominal durations are measured on
// a 2-CPU reference machine.
func units(window, nominal time.Duration) int {
	n := int((window + nominal/2) / nominal)
	if n < 1 {
		return 1
	}
	return n
}

// timeSetup sets w up once and records how long that took. The earlier
// state is torn down first, and each set-up starts from a collected
// heap, so neither teardown nor a collection owed by earlier garbage
// lands in a random set-up.
func (p *pass) timeSetup(w workloadRunner) error {
	w.close()
	return p.timeSetupFunc(w.setup)
}

// timeSetupFunc times one call of setup, which sets up the workload or
// does the same work, from a collected heap.
func (p *pass) timeSetupFunc(setup func() error) error {
	runtime.GC()
	done := p.tr.begin(laneClient, "setup", "setup")
	start := time.Now()
	err := setup()
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	done()
	return err
}

// runPass sets the workload up, then measures it. setup_s is the median
// of this set-up and of those timed while measuring, which are spread
// over the run: one per extra campaign and a spare one after each Run on
// cold-campaign and cluster-fanout, one per block on serve-stream and a
// spare one after each block on warm-iterate.
func runPass(w workloadRunner, tr *tracer, window time.Duration, counting bool) (*pass, error) {
	p := newPass(tr, window)
	p.counting = counting
	if tr != nil {
		var err error
		if p.prober, err = newProber(); err != nil {
			return nil, err
		}
	}
	if err := p.timeSetup(w); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&p.memBefore)
	stop := p.sampleMemory()
	err := w.measure(p)
	stop()
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops := float64(len(p.latencyMS)); ops > 0 {
		p.goAllocs = float64(after.Mallocs-p.memBefore.Mallocs) / ops
		p.goAllocMB = float64(after.TotalAlloc-p.memBefore.TotalAlloc) / ops / (1 << 20)
		// Collections timeSetup forces are not the workload's.
		p.goGC = float64((after.NumGC-after.NumForcedGC)-(p.memBefore.NumGC-p.memBefore.NumForcedGC)) / ops
	}
	return p, nil
}

// runObservation is what one Run's progress hook saw.
type runObservation struct {
	start time.Time

	mu    sync.Mutex
	plan  core.ProgressEvent
	planT time.Time
	cellT []time.Time
	hosts []core.HostStatus
}

// executed, replayed and deduped split the Run's cells as its plan
// event reported them.
func (o *runObservation) executed() int { return o.plan.Total - o.plan.Replayed - o.plan.Deduped }

// run executes one Run with a progress hook and records the core-layer
// view of it: time to plan, to the first settled cell, and between
// cells.
func (p *pass) run(fx *core.Fex, cfg core.Config, runID string) (*core.RunReport, *runObservation, error) {
	obs := &runObservation{}
	hooks := core.RunHooks{RunID: runID, Progress: func(ev core.ProgressEvent) {
		now := time.Now()
		obs.mu.Lock()
		switch ev.Stage {
		case "plan":
			obs.plan, obs.planT = ev, now
		case "cell":
			obs.cellT = append(obs.cellT, now)
		}
		if ev.Hosts != nil {
			obs.hosts = ev.Hosts
		}
		obs.mu.Unlock()
		p.tr.mark(laneClient, "core", ev.Stage, map[string]any{"done": ev.Done, "total": ev.Total,
			"replayed": ev.Replayed, "deduped": ev.Deduped})
	}}
	done := p.tr.begin(laneClient, "core", "Run "+cfg.Experiment)
	obs.start = time.Now()
	report, err := fx.RunWithHooks(context.Background(), cfg, hooks)
	end := time.Now()
	done()
	if err != nil {
		return nil, obs, err
	}
	p.sample("core.run_ms", ms(end.Sub(obs.start)))
	if !obs.planT.IsZero() {
		p.sample("core.plan_ms", ms(obs.planT.Sub(obs.start)))
	}
	sort.Slice(obs.cellT, func(i, j int) bool { return obs.cellT[i].Before(obs.cellT[j]) })
	if len(obs.cellT) > 0 {
		p.sample("core.first_cell_ms", ms(obs.cellT[0].Sub(obs.start)))
	}
	if p.tr != nil {
		for i := 1; i < len(obs.cellT); i++ {
			p.cellGap = append(p.cellGap, ms(obs.cellT[i].Sub(obs.cellT[i-1])))
		}
	}
	return report, obs, nil
}

// countRun adds one Run's plan split to the exact core counters.
func (p *pass) countRun(obs *runObservation) {
	p.count("core.cells_executed", int64(obs.executed()))
	p.count("core.cells_replayed", int64(obs.plan.Replayed))
	p.count("core.cells_deduped", int64(obs.plan.Deduped))
	p.count("core.cells_total", int64(obs.plan.Total))
}
