package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fex/internal/measure"
	"fex/internal/workload"
)

// fixedNow gives every scheduler test the same log header timestamp so
// serial and parallel logs can be compared byte for byte.
var fixedNow = func() time.Time { return time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC) }

func newSchedFex(t *testing.T) *Fex {
	t.Helper()
	fx, err := New(Options{Now: fixedNow})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// deterministicHooks replaces the build and run actions with pure
// functions of the loop coordinates, so log and CSV bytes depend only on
// scheduling order — any nondeterminism the scheduler introduces shows up
// as a byte diff.
func deterministicHooks(perRunDelay time.Duration) Hooks {
	return Hooks{
		PerBenchmarkAction: func(rc *RunContext, buildType string, w workload.Workload) error {
			rc.Log.WriteNote(fmt.Sprintf("built %s/%s [%s]", w.Suite(), w.Name(), buildType))
			return nil
		},
		PerRunAction: func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
			if perRunDelay > 0 {
				time.Sleep(perRunDelay)
			}
			return measure.FromMap(map[string]float64{
				"cycles": float64(len(w.Name())*1000 + len(buildType)*100 + threads*10 + rep),
			}), nil
		},
	}
}

func registerSchedExperiment(t *testing.T, fx *Fex, name string, hooks Hooks) {
	t.Helper()
	if err := fx.RegisterExperiment(&Experiment{
		Name: name,
		Kind: KindPerformance,
		NewRunner: func(fx *Fex) (Runner, error) {
			return &BenchRunner{Suite: "splash", Hooks: hooks}, nil
		},
		Collect: GenericCollect,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeCells(t *testing.T) {
	ws := map[string]workload.Workload{}
	full := newSchedFex(t)
	for _, n := range []string{"fft", "lu", "radix"} {
		w, err := full.Registry().Lookup("splash", n)
		if err != nil {
			t.Fatal(err)
		}
		ws[n] = w
	}

	tests := []struct {
		name    string
		types   []string
		benches []string
		want    [][2]string // (buildType, benchmark) in canonical order
	}{
		{
			name:  "single type single bench",
			types: []string{"gcc_native"}, benches: []string{"fft"},
			want: [][2]string{{"gcc_native", "fft"}},
		},
		{
			name:  "types outermost, benches innermost",
			types: []string{"gcc_native", "clang_native"}, benches: []string{"fft", "lu"},
			want: [][2]string{
				{"gcc_native", "fft"}, {"gcc_native", "lu"},
				{"clang_native", "fft"}, {"clang_native", "lu"},
			},
		},
		{
			name:  "order follows inputs not sorting",
			types: []string{"clang_native", "gcc_native"}, benches: []string{"radix", "fft"},
			want: [][2]string{
				{"clang_native", "radix"}, {"clang_native", "fft"},
				{"gcc_native", "radix"}, {"gcc_native", "fft"},
			},
		},
		{
			name:  "no benches",
			types: []string{"gcc_native"}, benches: nil,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var benches []workload.Workload
			for _, n := range tt.benches {
				benches = append(benches, ws[n])
			}
			got := makeCells(tt.types, benches, "")
			if len(got) != len(tt.want) {
				t.Fatalf("got %d cells, want %d", len(got), len(tt.want))
			}
			for i, c := range got {
				if c.buildType != tt.want[i][0] || c.workload.Name() != tt.want[i][1] {
					t.Errorf("cell %d = (%s, %s), want (%s, %s)",
						i, c.buildType, c.workload.Name(), tt.want[i][0], tt.want[i][1])
				}
			}
		})
	}
}

// TestSchedulerPoolBounds proves the pool runs exactly Jobs cells
// concurrently: never more (max tracked across the run), and genuinely
// that many at once (a barrier that only opens when Jobs cells are in
// flight simultaneously).
func TestSchedulerPoolBounds(t *testing.T) {
	const jobs = 3
	fx := newSchedFex(t)

	var inFlight, maxInFlight atomic.Int64
	arrived := make(chan struct{}, 64)
	release := make(chan struct{})
	var releaseOnce sync.Once
	go func() {
		for i := 0; i < jobs; i++ {
			<-arrived
		}
		releaseOnce.Do(func() { close(release) })
	}()

	hooks := deterministicHooks(0)
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		n := inFlight.Add(1)
		for {
			cur := maxInFlight.Load()
			if n <= cur || maxInFlight.CompareAndSwap(cur, n) {
				break
			}
		}
		arrived <- struct{}{}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("pool never reached %d concurrent cells", jobs)
		}
		inFlight.Add(-1)
		return measure.FromMap(map[string]float64{"cycles": 1}), nil
	}
	registerSchedExperiment(t, fx, "sched_bounds", hooks)

	_, err := fx.Run(context.Background(), Config{
		Experiment: "sched_bounds",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Input:      workload.SizeTest,
		Jobs:       jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != jobs {
		t.Fatalf("max concurrent cells = %d, want exactly %d", got, jobs)
	}
}

// TestSchedulerDeterministicOutput is the -race regression test of the
// determinism contract: a 4-benchmark suite at Jobs: 4 must store a run
// log and a collected CSV that are byte-identical to the Jobs: 1 run.
func TestSchedulerDeterministicOutput(t *testing.T) {
	var logs, csvs []string
	for _, jobs := range []int{1, 4} {
		fx := newSchedFex(t)
		registerSchedExperiment(t, fx, "sched_ident", deterministicHooks(0))
		report, err := fx.Run(context.Background(), Config{
			Experiment: "sched_ident",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Benchmarks: []string{"fft", "lu", "radix", "ocean"},
			Threads:    []int{1, 2},
			Reps:       2,
			Input:      workload.SizeTest,
			Jobs:       jobs,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if want := 2 * 4 * 2 * 2; report.Measurements != want {
			t.Fatalf("jobs=%d: %d measurements, want %d", jobs, report.Measurements, want)
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
		t.Errorf("run log differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", logs[0], logs[1])
	}
	if csvs[0] != csvs[1] {
		t.Errorf("collected CSV differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", csvs[0], csvs[1])
	}
}

// TestSchedulerSkipBenchmark checks SkipBenchmark() sentinel semantics
// under parallel execution: a PerBenchmarkAction returning it skips only
// its own cell, records the skip note in canonical log position, and
// leaves every other cell's measurements intact.
func TestSchedulerSkipBenchmark(t *testing.T) {
	fx := newSchedFex(t)
	hooks := deterministicHooks(0)
	base := hooks.PerBenchmarkAction
	hooks.PerBenchmarkAction = func(rc *RunContext, buildType string, w workload.Workload) error {
		if buildType == "clang_native" && w.Name() == "lu" {
			return SkipBenchmark()
		}
		return base(rc, buildType, w)
	}
	registerSchedExperiment(t, fx, "sched_skip", hooks)

	report, err := fx.Run(context.Background(), Config{
		Experiment: "sched_skip",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Input:      workload.SizeTest,
		Jobs:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 types × 3 benches minus the one skipped cell.
	if want := 2*3 - 1; report.Measurements != want {
		t.Fatalf("%d measurements, want %d", report.Measurements, want)
	}
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lg), "NOTE|skipped splash/lu [clang_native]") {
		t.Errorf("log missing skip note:\n%s", lg)
	}
	// The skipped cell must not have produced a measurement; its siblings
	// under the other build type must have.
	if strings.Contains(string(lg), "RUN|suite=splash|bench=lu|type=clang_native") {
		t.Errorf("skipped cell still produced measurements:\n%s", lg)
	}
	if !strings.Contains(string(lg), "RUN|suite=splash|bench=lu|type=gcc_native") {
		t.Errorf("sibling cell was skipped too:\n%s", lg)
	}
}

// TestSchedulerErrorStopsDispatch checks the parallel loop's error path:
// a failing cell aborts the run with a wrapped cell error, like the
// serial loop's first-error abort.
func TestSchedulerErrorStopsDispatch(t *testing.T) {
	fx := newSchedFex(t)
	hooks := deterministicHooks(0)
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		if w.Name() == "lu" {
			return nil, fmt.Errorf("modeled failure")
		}
		return measure.FromMap(map[string]float64{"cycles": 1}), nil
	}
	registerSchedExperiment(t, fx, "sched_err", hooks)

	_, err := fx.Run(context.Background(), Config{
		Experiment: "sched_err",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Input:      workload.SizeTest,
		Jobs:       2,
	})
	if err == nil {
		t.Fatal("run succeeded despite failing cell")
	}
	if !strings.Contains(err.Error(), "splash/lu") || !strings.Contains(err.Error(), "modeled failure") {
		t.Errorf("error %q does not identify the failed cell", err)
	}
}

// TestSchedulerRealWorkloads runs the default hooks — real builds, dry
// runs, and modeled kernel executions — at Jobs: 4, so the race detector
// exercises the build cache, the container FS, and the kernels under
// genuine concurrency.
func TestSchedulerRealWorkloads(t *testing.T) {
	fx := newSchedFex(t)
	installAll(t, fx, "gcc-6.1", "clang-3.8.0")
	report, err := fx.Run(context.Background(), Config{
		Experiment: "phoenix",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"histogram", "word_count", "kmeans", "string_match"},
		Input:      workload.SizeTest,
		Jobs:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 4; report.Measurements != want {
		t.Fatalf("%d measurements, want %d", report.Measurements, want)
	}
}

// TestVariableInputRunnerParallel checks the extended loop's parallel
// path produces the same measurement set as its serial path.
func TestVariableInputRunnerParallel(t *testing.T) {
	var reports []*RunReport
	for _, jobs := range []int{1, 3} {
		fx := newSchedFex(t)
		installAll(t, fx, "gcc-6.1")
		if err := fx.RegisterExperiment(&Experiment{
			Name: "sched_varinput",
			Kind: KindVariableInput,
			NewRunner: func(fx *Fex) (Runner, error) {
				return &VariableInputRunner{
					Suite:  "phoenix",
					Inputs: []workload.SizeClass{workload.SizeTest, workload.SizeSmall},
				}, nil
			},
			Collect: GenericCollect,
		}); err != nil {
			t.Fatal(err)
		}
		report, err := fx.Run(context.Background(), Config{
			Experiment: "sched_varinput",
			BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"histogram", "linear_regression", "pca"},
			Jobs:       jobs,
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		reports = append(reports, report)
	}
	if reports[0].Measurements != reports[1].Measurements {
		t.Fatalf("serial run: %d measurements, parallel run: %d",
			reports[0].Measurements, reports[1].Measurements)
	}
	// Rows must agree cell-for-cell (live wall_ns differs; compare keys).
	for _, col := range []string{"suite", "bench", "type"} {
		a, err := reports[0].Table.Strings(col)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reports[1].Table.Strings(col)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("column %s differs: serial=%v parallel=%v", col, a, b)
		}
	}
}

// TestProgressMonotonicEveryTier pins progress delivery on every tier:
// cells settle on the scheduler loop, one at a time, so across the "cell"
// events Done rises by exactly 1 from the plan's count and ends at Total.
// The hook deliberately keeps unsynchronized state — under -race a
// callback from concurrent workers would be reported.
func TestProgressMonotonicEveryTier(t *testing.T) {
	for _, mode := range runModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			fx := newSchedFex(t)
			registerSchedExperiment(t, fx, "progress_"+mode.name, deterministicHooks(time.Millisecond))
			cfg := Config{
				Experiment: "progress_" + mode.name,
				BuildTypes: []string{"gcc_native", "clang_native"},
				Benchmarks: []string{"fft", "lu", "radix", "ocean"},
				Reps:       2,
				Input:      workload.SizeTest,
				ModelTime:  true,
			}
			mode.set(&cfg)
			var plan ProgressEvent
			var done []int
			total := 0
			_, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: func(ev ProgressEvent) {
				switch ev.Stage {
				case "plan":
					plan = ev
				case "cell":
					done = append(done, ev.Done)
					total = ev.Total
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(done) == 0 {
				t.Fatal("no cell progress events")
			}
			for i, d := range done {
				if want := plan.Done + i + 1; d != want {
					t.Fatalf("cell event %d reports Done=%d, want %d (sequence %v)", i, d, want, done)
				}
			}
			if last := done[len(done)-1]; last != total || total != plan.Total {
				t.Fatalf("final Done=%d of Total=%d, want %d of %d", last, total, plan.Total, plan.Total)
			}
		})
	}
}

// TestSchedulerSerialOrder pins the paper's serial order on the one-local-
// worker run: the second build type's PerTypeAction enters with no cell
// in flight and every cell of the first type settled. Started cells are
// counted in the per-benchmark hook, settled ones from progress events.
func TestSchedulerSerialOrder(t *testing.T) {
	benches := []string{"fft", "lu", "radix"}
	var started, settled atomic.Int64
	hooks := deterministicHooks(time.Millisecond)
	base := hooks.PerBenchmarkAction
	hooks.PerBenchmarkAction = func(rc *RunContext, buildType string, w workload.Workload) error {
		started.Add(1)
		return base(rc, buildType, w)
	}
	var atClang struct{ started, settled int64 }
	hooks.PerTypeAction = func(rc *RunContext, buildType string) error {
		if buildType == "clang_native" {
			atClang.started, atClang.settled = started.Load(), settled.Load()
		}
		return nil
	}
	fx := newSchedFex(t)
	registerSchedExperiment(t, fx, "serial_order", hooks)
	_, err := fx.RunWithHooks(context.Background(), Config{
		Experiment: "serial_order",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: benches,
		Reps:       2,
		Input:      workload.SizeTest,
		ModelTime:  true,
	}, RunHooks{Progress: func(ev ProgressEvent) {
		if ev.Stage == "cell" {
			settled.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if inFlight := atClang.started - atClang.settled; inFlight != 0 {
		t.Errorf("clang_native PerTypeAction entered with %d cells in flight, want 0", inFlight)
	}
	if want := int64(len(benches)); atClang.settled != want {
		t.Errorf("clang_native PerTypeAction entered with %d gcc_native cells settled, want %d", atClang.settled, want)
	}
}
