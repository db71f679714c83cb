package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"fex/internal/buildsys"
	"fex/internal/env"
	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/toolchain"
	"fex/internal/workload"
)

// RunContext is everything a runner needs for one experiment execution:
// the framework handle, the normalized configuration, the resolved
// environment, and the open log.
type RunContext struct {
	Fex     *Fex
	Config  Config
	Env     *env.Environment
	Log     *runlog.Writer
	Verbose io.Writer

	// ctx carries the run's cancellation signal. The scheduler loop stops
	// dispatching and building once it ends, cells observe it between
	// repetitions, and remote placements hand it to Host.Run. nil means
	// "never cancelled" (context.Background()).
	ctx context.Context

	// progress, when set, receives run-progress events: the plan summary
	// before execution starts and one event per settled cell. Events are
	// delivered one at a time, in order, from the goroutine running the
	// experiment (the scheduler loop settles every cell).
	progress func(ProgressEvent)

	// build overrides the framework build system for this context. Cluster
	// workers set it so cells dispatched to them compile against the
	// worker's private container instead of the coordinator's; nil uses
	// the framework's own build system.
	build *buildsys.System
}

// Context returns the run's cancellation context (context.Background()
// when the run was started without one).
func (rc *RunContext) Context() context.Context {
	if rc.ctx == nil {
		return context.Background()
	}
	return rc.ctx
}

// cancelled returns the context's error once the run has been cancelled,
// nil while it is live — the check every execution tier performs between
// units of work.
func (rc *RunContext) cancelled() error {
	if rc.ctx == nil {
		return nil
	}
	return rc.ctx.Err()
}

// child derives a cell-scoped context from rc: same framework handle,
// config, environment, cancellation context, progress hook, and build
// override, but logging into the given writer and verbose sink. Every
// execution tier builds its per-cell contexts through this one helper so
// a new cross-cutting field cannot be silently dropped on one tier.
func (rc *RunContext) child(lw *runlog.Writer, verbose io.Writer) *RunContext {
	return &RunContext{
		Fex:      rc.Fex,
		Config:   rc.Config,
		Env:      rc.Env,
		Log:      lw,
		Verbose:  verbose,
		ctx:      rc.ctx,
		progress: rc.progress,
		build:    rc.build,
	}
}

// reportProgress delivers one progress event to the run's observer, if
// any.
func (rc *RunContext) reportProgress(ev ProgressEvent) {
	if rc.progress != nil {
		rc.progress(ev)
	}
}

// Artifact builds (or fetches from the context's build cache) one
// benchmark binary. Runners and hooks must build through this method, not
// Fex.Artifact, so cells executing on a cluster worker use the worker's
// build system.
func (rc *RunContext) Artifact(w workload.Workload, buildType string, debug bool) (*toolchain.Artifact, error) {
	if rc.build != nil {
		return rc.build.Build(w, buildType, debug)
	}
	return rc.Fex.Artifact(w, buildType, debug)
}

// logf writes progress output when -v is set.
func (rc *RunContext) logf(format string, args ...any) {
	if rc.Config.Verbose && rc.Verbose != nil {
		fmt.Fprintf(rc.Verbose, format+"\n", args...)
	}
}

// finishSample prepares an executed sample for metric collection: under
// --modeled-time the live wall clock is replaced by modeled wall time (a
// pure function of the workload and build type) before any tool sees the
// sample, so every wall-derived metric — wall_ns, the time tool's
// wall_seconds — is machine-independent.
func (rc *RunContext) finishSample(s measure.Sample) measure.Sample {
	if rc.Config.ModelTime {
		s.WallTime = s.ModeledWall()
	}
	return s
}

// execute runs one repetition of the artifact, honouring the -no-memo
// escape hatch: by default repeated (benchmark, input, threads)
// configurations are served from the build system's shared execution
// memo (an O(1) model evaluation, whichever build type first ran the
// kernel), while NoMemo re-executes the kernel every time.
//
// Adaptive repetitions over live wall time also bypass the memo: the
// -r auto stop rule watches wall_ns variance, and with the memo on every
// repetition after the first would sample ~µs cached-evaluation jitter
// instead of kernel execution noise — the controller would spend the cap
// on meaningless samples. Under --modeled-time the adaptive metric is
// deterministic, so memoization stays on.
func (rc *RunContext) execute(artifact *toolchain.Artifact, in workload.Input, threads int) (measure.Sample, error) {
	if rc.Config.NoMemo || (rc.Config.AdaptiveReps && !rc.Config.ModelTime) {
		return artifact.ExecuteUncached(in, threads)
	}
	return artifact.Execute(in, threads)
}

// Runner executes one experiment. Implementations mirror the paper's
// Runner subclasses (PhoenixPerformance, ParsecSecurity,
// PhoenixVariableInputPerformance, …).
type Runner interface {
	// Run performs the experiment, writing measurements to rc.Log.
	Run(rc *RunContext) error
}

// Hooks are the overridable actions of the standard experiment loop
// (Figure 4 of the paper). Any nil hook falls back to the default
// behaviour; the loop structure itself stays fixed, "but the concrete
// actions can be tailored to the needs of the given experiment".
type Hooks struct {
	// PerTypeAction runs once per build type, before its benchmarks.
	PerTypeAction func(rc *RunContext, buildType string) error
	// PerBenchmarkAction runs once per (type, benchmark): the default
	// builds the benchmark and performs a dry run when the workload
	// requires one.
	PerBenchmarkAction func(rc *RunContext, buildType string, w workload.Workload) error
	// PerThreadAction runs once per (type, benchmark, threads).
	PerThreadAction func(rc *RunContext, buildType string, w workload.Workload, threads int) error
	// PerRunAction performs one measured repetition and returns its
	// metrics; the default executes the built artifact under the
	// configured measurement tool. Ownership of the returned vector
	// passes to the loop, which releases it to the metric pool after the
	// record is logged — hooks build it with measure.AcquireMetricVector
	// or measure.FromMap and must not retain it.
	PerRunAction func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error)
}

// BenchRunner is the standard suite runner: the nested loop of Figure 4
// over build types × benchmarks × thread counts × repetitions.
type BenchRunner struct {
	// Suite selects which registered suite to run.
	Suite string
	// Hooks overrides individual loop actions.
	Hooks Hooks
}

var _ Runner = (*BenchRunner)(nil)

// errSkipBenchmark lets a PerBenchmarkAction skip one benchmark without
// failing the experiment.
var errSkipBenchmark = errors.New("core: skip benchmark")

// SkipBenchmark is returned by a PerBenchmarkAction hook to skip the
// current benchmark.
func SkipBenchmark() error { return errSkipBenchmark }

// Run implements Runner: the experiment loop, routed through the run
// planner (plan.go) and the scheduler (schedule.go). With Config.Jobs > 1
// the independent (build type, benchmark) cells of the loop run on that
// many local workers, and with Config.Hosts on remote workers (see
// cluster.go); the default single local worker executes the
// paper-faithful serial order.
// Every tier runs its cells through the plan: completed cells persist,
// -resume replays satisfied cells, in-run duplicates measure once, and
// build types with no cold cells skip their PerTypeAction entirely.
// Per-type actions keep their ordering guarantee relative to their own
// cells; in the parallel tiers each cold type's PerTypeAction runs
// (serially, in -t order) before that type's cells, pipelined with
// earlier types' measurements — the one observable reordering versus the
// serial loop.
func (r *BenchRunner) Run(rc *RunContext) error {
	benches, err := rc.Fex.selectBenchmarks(r.Suite, rc.Config.Benchmarks)
	if err != nil {
		return err
	}
	perType := func(prc *RunContext, buildType string) error {
		if err := r.perType(prc, buildType); err != nil {
			return fmt.Errorf("experiment %s, type %s: %w", rc.Config.Experiment, buildType, err)
		}
		return nil
	}
	cellFn := func(cellRC *RunContext, c cell) error {
		return r.runCell(cellRC, c.buildType, c.workload)
	}
	return runExperiment(rc, benches, "", perType, cellFn)
}

// runCell executes one cell — per-benchmark action, then the serialized
// threads × repetitions sweep — writing records to rc.Log. A
// SkipBenchmark() from the per-benchmark action skips exactly this cell.
//
// The default per-run action is resolved once per cell with everything
// loop-invariant hoisted — artifact, input, measurement tool — so the
// repetition loop itself allocates nothing: executions come from the
// execution memo, metric vectors from the pool, and log records render
// into reused buffers.
func (r *BenchRunner) runCell(rc *RunContext, buildType string, w workload.Workload) error {
	err := r.perBenchmark(rc, buildType, w)
	if errors.Is(err, errSkipBenchmark) {
		rc.Log.WriteNote(fmt.Sprintf("skipped %s/%s [%s]", w.Suite(), w.Name(), buildType))
		return nil
	}
	if err != nil {
		return fmt.Errorf("experiment %s, %s/%s [%s]: %w",
			rc.Config.Experiment, w.Suite(), w.Name(), buildType, err)
	}
	perRun := r.Hooks.PerRunAction
	if perRun == nil {
		artifact, tool, in, err := prepareDefaultRun(rc, buildType, w)
		if err != nil {
			return fmt.Errorf("experiment %s, %s/%s [%s]: %w",
				rc.Config.Experiment, w.Suite(), w.Name(), buildType, err)
		}
		perRun = func(rc *RunContext, _ string, _ workload.Workload, threads, _ int) (*measure.MetricVector, error) {
			return defaultRep(rc, artifact, tool, in, threads, true)
		}
	}
	for _, threads := range rc.Config.Threads {
		if err := r.perThread(rc, buildType, w, threads); err != nil {
			return fmt.Errorf("experiment %s, %s/%s [%s] m=%d: %w",
				rc.Config.Experiment, w.Suite(), w.Name(), buildType, threads, err)
		}
		// Repetitions are driven by the controller: a fixed count under
		// -r N, the pilot-then-RequiredRepetitions stop rule under -r auto.
		ctl := newRepController(rc.Config)
		var samples []float64
		for rep := 0; ctl.more(rep, samples); rep++ {
			// Cancellation is observed between repetitions: a cancelled run
			// abandons the cell mid-sweep (its partial shard never persists)
			// and the error surfaces as the context's.
			if err := rc.cancelled(); err != nil {
				return err
			}
			values, err := perRun(rc, buildType, w, threads, rep)
			if err != nil {
				return fmt.Errorf("experiment %s, %s/%s [%s] m=%d rep=%d: %w",
					rc.Config.Experiment, w.Suite(), w.Name(), buildType, threads, rep, err)
			}
			rc.Log.WriteMeasurement(runlog.Measurement{
				Suite:     w.Suite(),
				Benchmark: w.Name(),
				BuildType: buildType,
				Threads:   threads,
				Rep:       rep,
				Values:    values,
			})
			if v, ok := adaptiveMetric(values); ok {
				samples = append(samples, v)
			}
			values.Release()
		}
	}
	return nil
}

func (r *BenchRunner) perType(rc *RunContext, buildType string) error {
	rc.logf("== build type %s", buildType)
	if r.Hooks.PerTypeAction != nil {
		return r.Hooks.PerTypeAction(rc, buildType)
	}
	return nil
}

func (r *BenchRunner) perBenchmark(rc *RunContext, buildType string, w workload.Workload) error {
	if r.Hooks.PerBenchmarkAction != nil {
		return r.Hooks.PerBenchmarkAction(rc, buildType, w)
	}
	return DefaultPerBenchmark(rc, buildType, w)
}

// DefaultPerBenchmark is the stock per-benchmark action: build the
// benchmark for the given type (the build step runs "once before running
// each benchmark in the experiment") and perform a dry run when the
// workload asks for one.
func DefaultPerBenchmark(rc *RunContext, buildType string, w workload.Workload) error {
	rc.logf("  build %s/%s [%s]", w.Suite(), w.Name(), buildType)
	artifact, err := rc.Artifact(w, buildType, rc.Config.Debug)
	if err != nil {
		return err
	}
	if workload.NeedsDryRun(w) {
		rc.logf("  dry run %s/%s", w.Suite(), w.Name())
		in := w.DefaultInput(workload.SizeTest)
		if _, err := rc.execute(artifact, in, 1); err != nil {
			return fmt.Errorf("dry run: %w", err)
		}
		rc.Log.WriteNote(fmt.Sprintf("dry run %s/%s [%s]", w.Suite(), w.Name(), buildType))
	}
	return nil
}

func (r *BenchRunner) perThread(rc *RunContext, buildType string, w workload.Workload, threads int) error {
	if r.Hooks.PerThreadAction != nil {
		return r.Hooks.PerThreadAction(rc, buildType, w, threads)
	}
	return nil
}

// prepareDefaultRun resolves the loop-invariant state of the default
// per-run action: the built artifact, the measurement tool, and the
// configured input. Hoisting these out of the repetition loop is what
// makes the steady-state loop allocation-free (DefaultInput builds an
// Extra map for several kernels; tool lookup boxes an interface).
func prepareDefaultRun(rc *RunContext, buildType string, w workload.Workload) (*toolchain.Artifact, measure.Tool, workload.Input, error) {
	artifact, err := rc.Artifact(w, buildType, rc.Config.Debug)
	if err != nil {
		return nil, nil, workload.Input{}, err
	}
	tool, err := measure.ToolByName(rc.Config.Tool)
	if err != nil {
		return nil, nil, workload.Input{}, err
	}
	return artifact, tool, w.DefaultInput(rc.Config.Input), nil
}

// defaultRep performs one measured repetition on prepared state — the
// hot path of the experiment loop. Steady state it allocates nothing:
// the execution comes from the execution memo (an O(1) model evaluation),
// the metric vector from the pool, and the per-rep alloc-regression test
// pins it at zero. The caller owns the returned vector and releases it
// after logging.
func defaultRep(rc *RunContext, artifact *toolchain.Artifact, tool measure.Tool, in workload.Input, threads int, withChecksum bool) (*measure.MetricVector, error) {
	sample, err := rc.execute(artifact, in, threads)
	if err != nil {
		return nil, err
	}
	sample = rc.finishSample(sample)
	values := measure.AcquireMetricVector()
	tool.Collect(sample, values)
	if withChecksum {
		values.Set("checksum", float64(sample.Checksum%(1<<52))) // store low bits for cross-type validation
	}
	values.Set("wall_ns", float64(sample.WallTime.Nanoseconds()))
	return values, nil
}

// DefaultPerRun executes the built artifact on the configured input size
// and extracts metrics with the configured measurement tool — the
// stand-alone form of the default per-run action, for custom hooks that
// wrap it. The runner's own loop uses the prepared fast path instead.
func DefaultPerRun(rc *RunContext, buildType string, w workload.Workload, threads int) (*measure.MetricVector, error) {
	artifact, tool, in, err := prepareDefaultRun(rc, buildType, w)
	if err != nil {
		return nil, err
	}
	return defaultRep(rc, artifact, tool, in, threads, true)
}

// VariableInputRunner extends the experiment loop with an input-size
// dimension, mirroring the paper's VariableInputRunner subclass that
// redefines experiment_loop (Figure 3/4: "if even more parameters would be
// necessary, the experiment_loop can be redefined or extended in a
// subclass").
type VariableInputRunner struct {
	Suite string
	// Inputs are the size classes to sweep; defaults to test/small/native.
	Inputs []workload.SizeClass
	Hooks  Hooks
}

var _ Runner = (*VariableInputRunner)(nil)

// Run implements Runner with the extended loop: build types × benchmarks ×
// inputs × thread counts × repetitions. Like BenchRunner, Config.Jobs > 1
// runs the (build type, benchmark) cells on the worker pool; the input
// sweep stays inside the cell, serialized. The sweep is part of the cell's
// store fingerprint (its dims), so resuming with a different input list
// misses cleanly and re-measures.
func (r *VariableInputRunner) Run(rc *RunContext) error {
	inputs := r.Inputs
	if len(inputs) == 0 {
		inputs = []workload.SizeClass{workload.SizeTest, workload.SizeSmall, workload.SizeNative}
	}
	benches, err := rc.Fex.selectBenchmarks(r.Suite, rc.Config.Benchmarks)
	if err != nil {
		return err
	}
	names := make([]string, len(inputs))
	for i, in := range inputs {
		names[i] = in.String()
	}
	dims := "inputs=" + strings.Join(names, ",")
	perType := func(prc *RunContext, buildType string) error {
		if r.Hooks.PerTypeAction != nil {
			return r.Hooks.PerTypeAction(prc, buildType)
		}
		return nil
	}
	cellFn := func(cellRC *RunContext, c cell) error {
		return r.runCell(cellRC, c.buildType, c.workload, inputs)
	}
	return runExperiment(rc, benches, dims, perType, cellFn)
}

// runCell executes one variable-input cell: build + dry run, then the
// serialized inputs × threads × repetitions sweep. Like the standard
// runner, everything loop-invariant is hoisted so the repetition loop
// allocates nothing steady-state.
func (r *VariableInputRunner) runCell(rc *RunContext, buildType string, w workload.Workload, inputs []workload.SizeClass) error {
	if err := DefaultPerBenchmark(rc, buildType, w); err != nil {
		return fmt.Errorf("variable-input %s/%s [%s]: %w", w.Suite(), w.Name(), buildType, err)
	}
	artifact, err := rc.Artifact(w, buildType, rc.Config.Debug)
	if err != nil {
		return err
	}
	tool, err := measure.ToolByName(rc.Config.Tool)
	if err != nil {
		return err
	}
	for _, input := range inputs {
		in := w.DefaultInput(input)
		benchLabel := w.Name() + ":" + input.String()
		for _, threads := range rc.Config.Threads {
			ctl := newRepController(rc.Config)
			var samples []float64
			for rep := 0; ctl.more(rep, samples); rep++ {
				if err := rc.cancelled(); err != nil {
					return err
				}
				values, err := defaultRep(rc, artifact, tool, in, threads, false)
				if err != nil {
					return fmt.Errorf("variable-input %s/%s [%s] input=%s: %w",
						w.Suite(), w.Name(), buildType, input, err)
				}
				values.Set("input_class", float64(input))
				rc.Log.WriteMeasurement(runlog.Measurement{
					Suite:     w.Suite(),
					Benchmark: benchLabel,
					BuildType: buildType,
					Threads:   threads,
					Rep:       rep,
					Values:    values,
				})
				if v, ok := adaptiveMetric(values); ok {
					samples = append(samples, v)
				}
				values.Release()
			}
		}
	}
	return nil
}
