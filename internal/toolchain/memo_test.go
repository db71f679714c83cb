package toolchain

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fex/internal/measure"
	"fex/internal/workload"
	"fex/internal/workload/splash"
)

// countingWorkload wraps a kernel and counts physical executions, making
// the memo's "kernel runs once per configuration" contract observable.
// While fail is positive, each run decrements it and fails; a non-nil
// gate holds every run until it is closed.
type countingWorkload struct {
	workload.Workload
	runs *atomic.Int64
	fail *atomic.Int64
	gate chan struct{}
}

var errInjected = errors.New("injected kernel failure")

func (c countingWorkload) Run(in workload.Input, threads int) (workload.Counters, error) {
	c.runs.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	if c.fail != nil && c.fail.Add(-1) >= 0 {
		return workload.Counters{}, errInjected
	}
	return c.Workload.Run(in, threads)
}

func compileCounting(t *testing.T, runs *atomic.Int64) *Artifact {
	t.Helper()
	return compileShared(t, nil, countingWorkload{Workload: splash.FFT{}, runs: runs}, GCC(), "gcc_native")
}

// compileShared compiles one build type of w against memo (nil: a
// private memo), as a build system does for its artifacts.
func compileShared(t *testing.T, memo *ExecMemo, w workload.Workload, c *Compiler, buildType string) *Artifact {
	t.Helper()
	var flags []string
	if strings.HasSuffix(buildType, "_asan") {
		flags = []string{"-fsanitize=address"}
	}
	a, err := c.Compile(SourceUnit{
		Benchmark: w,
		CFLAGS:    append([]string{"-O2"}, flags...),
		LDFLAGS:   flags,
		BuildType: buildType,
		Memo:      memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// compileAllTypes compiles the four shipped build types of w against
// one shared memo.
func compileAllTypes(t *testing.T, w workload.Workload) []*Artifact {
	t.Helper()
	memo := NewExecMemo()
	return []*Artifact{
		compileShared(t, memo, w, GCC(), "gcc_native"),
		compileShared(t, memo, w, GCC(), "gcc_asan"),
		compileShared(t, memo, w, Clang(), "clang_native"),
		compileShared(t, memo, w, Clang(), "clang_asan"),
	}
}

func TestExecuteMemoizesRepetitions(t *testing.T) {
	var runs atomic.Int64
	a := compileCounting(t, &runs)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)

	first, err := a.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 7; rep++ {
		s, err := a.Execute(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Memoized measurements are byte-for-byte those of a real
		// execution.
		if s != first {
			t.Fatalf("memoized rep %d diverged: %+v vs %+v", rep, s, first)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("kernel executed %d times for 8 repetitions, want 1", runs.Load())
	}
	if a.MemoLen() != 1 {
		t.Errorf("memo holds %d entries, want 1", a.MemoLen())
	}
}

func TestExecuteMemoKeyedByInputAndThreads(t *testing.T) {
	var runs atomic.Int64
	a := compileCounting(t, &runs)
	inTest := splash.FFT{}.DefaultInput(workload.SizeTest)
	inSmall := splash.FFT{}.DefaultInput(workload.SizeSmall)

	configs := []struct {
		in      workload.Input
		threads int
	}{{inTest, 1}, {inTest, 2}, {inSmall, 1}}
	for _, c := range configs {
		if _, err := a.Execute(c.in, c.threads); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != int64(len(configs)) {
		t.Fatalf("cold sweep executed %d kernels, want %d", runs.Load(), len(configs))
	}
	// Thread-sweep revisits: every configuration again, zero new runs.
	for _, c := range configs {
		if _, err := a.Execute(c.in, c.threads); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != int64(len(configs)) {
		t.Errorf("revisits executed %d kernels, want %d", runs.Load(), len(configs))
	}
	if a.MemoLen() != len(configs) {
		t.Errorf("memo holds %d entries, want %d", a.MemoLen(), len(configs))
	}
}

func TestExecuteUncachedBypassesMemo(t *testing.T) {
	var runs atomic.Int64
	a := compileCounting(t, &runs)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)

	for rep := 0; rep < 3; rep++ {
		if _, err := a.ExecuteUncached(in, 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 3 {
		t.Errorf("uncached executed %d kernels, want 3", runs.Load())
	}
	if a.MemoLen() != 0 {
		t.Errorf("uncached execution populated the memo: %d entries", a.MemoLen())
	}
	// And the memo path after an uncached warm-up still measures cold once.
	if _, err := a.Execute(in, 1); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 4 {
		t.Errorf("memoized run after uncached executed %d kernels total, want 4", runs.Load())
	}
}

func TestExecuteMemoMatchesUncached(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2"}, nil)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	if _, err := a.Execute(in, 2); err != nil {
		t.Fatal(err) // warm the memo
	}
	hit, err := a.Execute(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := a.ExecuteUncached(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hit != cold {
		t.Errorf("memoized sample diverges from uncached:\n%+v\nvs\n%+v", hit, cold)
	}
}

// TestMemoHitAppliesCurrentCost pins what the memo may cache: kernel
// counters only. A hit after the artifact's cost vector changed must
// model the cached counters under the new cost — exactly the sample an
// uncached execution under that cost produces — never replay a sample
// modeled under the old one.
func TestMemoHitAppliesCurrentCost(t *testing.T) {
	var runs atomic.Int64
	a := compileCounting(t, &runs)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	before, err := a.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Cost.MemRead *= 2
	hit, err := a.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("mutated cost vector re-ran the kernel (runs=%d, want 1)", runs.Load())
	}
	cold, err := a.ExecuteUncached(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hit != cold {
		t.Errorf("hit after cost change diverges from uncached:\n%+v\nvs\n%+v", hit, cold)
	}
	if hit.Cycles <= before.Cycles {
		t.Errorf("doubled memory-read cost did not raise cycles: %v -> %v", before.Cycles, hit.Cycles)
	}
}

// TestMemoKeysCanonical pins the key components: benchmark identity,
// input canonical form and threads. The cost vector is not one of them —
// the counters are cost-independent, which is what lets build types
// share them.
func TestMemoKeysCanonical(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2"}, nil)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	if _, err := a.Execute(in, 4); err != nil {
		t.Fatal(err)
	}
	keys := a.MemoKeys()
	if len(keys) != 1 {
		t.Fatalf("memo keys %v, want 1", keys)
	}
	if want := "splash/fft|" + in.Canonical() + "|threads=4"; keys[0] != want {
		t.Errorf("memo key %q, want %q", keys[0], want)
	}
}

func TestExecuteErrorNotMemoized(t *testing.T) {
	var runs atomic.Int64
	a := compileCounting(t, &runs)
	bad := workload.Input{N: 3} // FFT rejects non-power-of-two sizes
	for i := 0; i < 2; i++ {
		if _, err := a.Execute(bad, 1); err == nil {
			t.Fatal("expected error for bad input")
		}
	}
	if runs.Load() != 2 {
		t.Errorf("failed executions ran %d times, want 2 (errors must not cache)", runs.Load())
	}
	if a.MemoLen() != 0 {
		t.Errorf("failed execution left %d memo entries", a.MemoLen())
	}
}

// TestMemoSharedAcrossBuildTypes pins the cross-type contract: artifacts
// of one benchmark from different compilers, with and without ASan,
// share one memo, so the kernel runs once for all four, and each
// artifact's sample is its own uncached sample.
func TestMemoSharedAcrossBuildTypes(t *testing.T) {
	var runs atomic.Int64
	arts := compileAllTypes(t, countingWorkload{Workload: splash.FFT{}, runs: &runs})
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	hits := make([]measure.Sample, len(arts))
	for i, a := range arts {
		var err error
		if hits[i], err = a.Execute(in, 2); err != nil {
			t.Fatal(err)
		}
		if !a.Memoized(in, 2) {
			t.Errorf("%s: not memoized after executing", a.BuildType)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("%d build types ran the kernel %d times, want 1", len(arts), runs.Load())
	}
	if n := arts[0].MemoLen(); n != 1 {
		t.Errorf("first artifact performed %d executions, want 1", n)
	}
	for i, a := range arts {
		if n := a.MemoLen(); i > 0 && n != 0 {
			t.Errorf("%s performed %d executions, want 0 (served by the shared memo)", a.BuildType, n)
		}
		uncached, err := a.ExecuteUncached(in, 2)
		if err != nil {
			t.Fatal(err)
		}
		if hits[i] != uncached {
			t.Errorf("%s: shared-memo sample diverges from uncached:\n%+v\nvs\n%+v", a.BuildType, hits[i], uncached)
		}
	}
}

// TestMemoSingleFlight races cold executions of one configuration across
// goroutines and build types: exactly one kernel runs, and every caller
// gets a correct sample. Run it under -race -count=10.
func TestMemoSingleFlight(t *testing.T) {
	const callers = 8
	var runs atomic.Int64
	gate := make(chan struct{})
	arts := compileAllTypes(t, countingWorkload{Workload: splash.FFT{}, runs: &runs, gate: gate})
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	var wg sync.WaitGroup
	got := make([][]float64, len(arts))
	for i, a := range arts {
		got[i] = make([]float64, callers)
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(i, g int, a *Artifact) {
				defer wg.Done()
				s, err := a.Execute(in, 1)
				if err != nil {
					t.Error(err)
					return
				}
				got[i][g] = s.Cycles
			}(i, g, a)
		}
	}
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("%d cold callers ran %d kernels, want 1", callers*len(arts), runs.Load())
	}
	for i, a := range arts {
		s, err := a.ExecuteUncached(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		for g, c := range got[i] {
			if c != s.Cycles {
				t.Errorf("%s caller %d: cycles %v, want %v", a.BuildType, g, c, s.Cycles)
			}
		}
	}
}

// TestMemoFailedClaimReleasesWaiters pins the failure contract: a kernel
// that fails is never cached, and callers waiting on the failed claim
// neither hang nor inherit its error — one of them re-runs the kernel
// and the rest hit its result.
func TestMemoFailedClaimReleasesWaiters(t *testing.T) {
	const waiters = 8
	var runs, fail atomic.Int64
	w := countingWorkload{Workload: splash.FFT{}, runs: &runs, fail: &fail}
	arts := compileAllTypes(t, w)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)

	// Sequential: a failure leaves no entry behind.
	fail.Store(1)
	if _, err := arts[0].Execute(in, 1); !errors.Is(err, errInjected) {
		t.Fatalf("failing kernel returned %v, want the injected error", err)
	}
	if arts[0].Memoized(in, 1) || len(arts[0].MemoKeys()) != 0 || arts[0].MemoLen() != 0 {
		t.Fatalf("failed execution was cached: keys %v, execs %d", arts[0].MemoKeys(), arts[0].MemoLen())
	}

	// Concurrent: the leader's kernel is held inside its failing run
	// while the waiters pile onto its claim.
	runs.Store(0)
	fail.Store(1)
	held := make(chan struct{})
	w.gate = held
	arts = compileAllTypes(t, w)
	leaderErr := make(chan error, 1)
	go func() {
		_, err := arts[0].Execute(in, 1)
		leaderErr <- err
	}()
	for runs.Load() == 0 {
		runtime.Gosched() // until the leader is inside its kernel
	}
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(a *Artifact) {
			defer wg.Done()
			if _, err := a.Execute(in, 1); err != nil {
				t.Errorf("%s waiter: %v", a.BuildType, err)
			}
		}(arts[1+g%(len(arts)-1)])
	}
	close(held)
	wg.Wait()
	if err := <-leaderErr; !errors.Is(err, errInjected) {
		t.Fatalf("leader returned %v, want the injected error", err)
	}
	if runs.Load() != 2 {
		t.Errorf("kernel ran %d times, want 2 (the failed claim and one retry)", runs.Load())
	}
	if keys := arts[0].MemoKeys(); len(keys) != 1 {
		t.Errorf("memo keys %v after the retry, want 1", keys)
	}
}
