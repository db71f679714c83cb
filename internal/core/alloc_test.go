//go:build !race

// Allocation-regression tests live behind !race: the race runtime adds
// bookkeeping allocations that would make a zero pin flaky, and CI runs
// the suite both ways.
package core

import (
	"io"
	"testing"

	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/workload"
)

// TestModeledRepZeroAllocs pins the measurement hot loop at zero
// steady-state allocations: one modeled repetition end-to-end — memoized
// execution, tool collection into a pooled vector, log-record render —
// exactly the body the default runner executes per repetition once its
// loop-invariant state (artifact, input, tool) is prepared.
func TestModeledRepZeroAllocs(t *testing.T) {
	fx := memoFex(t)
	w, err := fx.Registry().Lookup("splash", "fft")
	if err != nil {
		t.Fatal(err)
	}
	lw := runlog.NewWriter(io.Discard)
	rc := &RunContext{
		Fex:    fx,
		Config: Config{Experiment: "splash", Input: workload.SizeTest},
		Log:    lw,
	}
	artifact, tool, in, err := prepareDefaultRun(rc, "gcc_native", w)
	if err != nil {
		t.Fatal(err)
	}

	oneRep := func(rep int) error {
		values, err := defaultRep(rc, artifact, tool, in, 1, true)
		if err != nil {
			return err
		}
		rc.Log.WriteMeasurement(runlog.Measurement{
			Suite:     "splash",
			Benchmark: "fft",
			BuildType: "gcc_native",
			Threads:   1,
			Rep:       rep,
			Values:    values,
		})
		if _, ok := values.Get("wall_ns"); !ok {
			t.Fatal("wall_ns missing")
		}
		values.Release()
		return nil
	}
	// Warm everything once: the execution memo, the vector pool, the
	// writer's scratch buffer.
	if err := oneRep(0); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(500, func() {
		if err := oneRep(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one modeled repetition allocates %.1f times, want 0", allocs)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricVectorPoolRoundTripZeroAllocs pins the pooled vector cycle on
// its own, so a pool regression is attributed precisely.
func TestMetricVectorPoolRoundTripZeroAllocs(t *testing.T) {
	s := measure.Sample{Cycles: 100, Instructions: 50}
	// Warm the pool.
	v := measure.AcquireMetricVector()
	measure.PerfStat{}.Collect(s, v)
	v.Release()
	allocs := testing.AllocsPerRun(500, func() {
		mv := measure.AcquireMetricVector()
		measure.PerfStat{}.Collect(s, mv)
		mv.Release()
	})
	if allocs != 0 {
		t.Errorf("pooled collect cycle allocates %.1f times, want 0", allocs)
	}
}
