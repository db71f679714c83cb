//go:build !race

// Allocation-regression tests live behind !race: the race runtime adds
// bookkeeping allocations that would make a zero pin flaky, and CI runs
// the suite both ways.
package core

import (
	"io"
	"strconv"
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

// collectLog316 is a synthetic run log shaped like a warm-iterate run:
// 316 cells (79 benchmarks × 4 build types), 3 repetitions each, 7
// metrics per record whose values differ between repetitions.
func collectLog316() *runlog.Log {
	types := []string{"gcc_native", "clang_native", "gcc_asan", "clang_asan"}
	metrics := []string{"branch_misses", "cycles", "instructions", "ipc", "l1d_misses", "llc_misses", "wall_ns"}
	lg := &runlog.Log{}
	for b := 0; b < 79; b++ {
		for _, bt := range types {
			for rep := 0; rep < 3; rep++ {
				v := measure.NewMetricVector()
				for i, m := range metrics {
					v.Set(m, float64(1000*b+10*i+rep))
				}
				lg.Measurements = append(lg.Measurements, runlog.Measurement{
					Suite: "splash", Benchmark: "b" + strconv.Itoa(b), BuildType: bt,
					Threads: 1, Rep: rep, Values: v,
				})
			}
		}
	}
	return lg
}

// TestGenericCollectAllocs pins the collect stage's allocations: a
// collect builds each typed column once, with no per-row boxing, so it
// allocates a few objects per cell for its group accumulators and a
// fixed number per column. It measured 1,633 allocations with go1.24 on
// the 316-cell log; the ceiling leaves a margin for other toolchains.
func TestGenericCollectAllocs(t *testing.T) {
	lg := collectLog316()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := GenericCollect(lg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GenericCollect: %.0f allocations for %d records", allocs, len(lg.Measurements))
	if allocs > 2000 {
		t.Errorf("GenericCollect allocates %.0f times on the 316-cell log, want at most 2000", allocs)
	}
}
