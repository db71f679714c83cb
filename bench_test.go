// Package fex_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index):
//
//	BenchmarkFigure6_SplashClangVsGCC      Figure 6  (normalized runtime barplot)
//	BenchmarkFigure7_NginxThroughputLatency Figure 7 (throughput–latency curves)
//	BenchmarkTable1_SupportedInventory     Table I   (supported experiments)
//	BenchmarkTable2_RIPESecurity           Table II  (RIPE success/fail counts)
//	BenchmarkTable3_ExtensionEffort        §IV LoC-effort evaluation
//	BenchmarkFigureA_ImageSize             §II-A image-size footnote
//
// plus ablation benches for the design decisions the paper calls out
// (rebuild-per-experiment vs --no-build, dry runs, repetition counts,
// thread scaling). Absolute numbers are not expected to match the paper's
// testbed; the benches assert and report the published *shape* via
// b.ReportMetric.
package fex_test

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fex/internal/container"
	"fex/internal/core"
	"fex/internal/measure"
	"fex/internal/runlog"
	"fex/internal/security"
	"fex/internal/stats"
	"fex/internal/store"
	"fex/internal/toolchain"
	"fex/internal/vfs"
	"fex/internal/workload"
)

// newFexB builds a framework instance for a benchmark or a test.
func newFexB(tb testing.TB, installs ...string) *core.Fex {
	tb.Helper()
	fx, err := core.New(core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, n := range installs {
		if _, err := fx.Install(n); err != nil {
			tb.Fatal(err)
		}
	}
	return fx
}

var printOnce sync.Map

// printTable prints a regenerated table exactly once per bench name, so
// the harness output carries the same rows/series the paper reports.
func printTable(name, content string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", name, content)
	}
}

// BenchmarkFigure6_SplashClangVsGCC regenerates Figure 6: SPLASH-3
// normalized runtime of Clang over native GCC, per benchmark plus the
// geometric mean. Reported metrics: the fft ratio (the paper's outlier)
// and the geomean.
func BenchmarkFigure6_SplashClangVsGCC(b *testing.B) {
	fx := newFexB(b, "gcc-6.1", "clang-3.8.0", "splash_inputs")
	var fftRatio, geomean float64
	for i := 0; i < b.N; i++ {
		report, err := fx.Run(context.Background(), core.Config{
			Experiment: "splash",
			BuildTypes: []string{"gcc_native", "clang_native"},
			Input:      workload.SizeTest,
		})
		if err != nil {
			b.Fatal(err)
		}
		benches, _ := report.Table.Strings("bench")
		types, _ := report.Table.Strings("type")
		cycles, _ := report.Table.Floats("cycles")
		byKey := map[[2]string]float64{}
		nameSet := map[string]bool{}
		for j := range benches {
			byKey[[2]string{benches[j], types[j]}] = cycles[j]
			nameSet[benches[j]] = true
		}
		names := make([]string, 0, len(nameSet))
		for n := range nameSet {
			names = append(names, n)
		}
		sort.Strings(names)
		var ratios []float64
		var rows string
		for _, n := range names {
			r := byKey[[2]string{n, "clang_native"}] / byKey[[2]string{n, "gcc_native"}]
			ratios = append(ratios, r)
			if n == "fft" {
				fftRatio = r
			}
			rows += fmt.Sprintf("%-16s %.3f\n", n, r)
		}
		gm, err := stats.GeoMean(ratios)
		if err != nil {
			b.Fatal(err)
		}
		geomean = gm
		rows += fmt.Sprintf("%-16s %.3f\n", "All (geomean)", gm)
		printTable("Figure 6: normalized runtime w.r.t. native GCC", rows)
	}
	// Shape assertions: Clang slightly worse overall, much worse on fft.
	if geomean <= 1.0 || geomean >= 1.5 {
		b.Fatalf("geomean %v outside the published shape (slightly above 1)", geomean)
	}
	if fftRatio <= 1.3 {
		b.Fatalf("fft ratio %v — fft must be the Figure 6 outlier", fftRatio)
	}
	b.ReportMetric(fftRatio, "fft-ratio")
	b.ReportMetric(geomean, "geomean-ratio")
}

// BenchmarkFigure7_NginxThroughputLatency regenerates Figure 7: the
// throughput–latency sweep of the web server under GCC and Clang builds.
// Reported metrics: peak achieved throughput per build type; the shape
// assertion is that Clang's knee is below GCC's.
func BenchmarkFigure7_NginxThroughputLatency(b *testing.B) {
	fx := newFexB(b, "gcc-6.1", "clang-3.8.0", "nginx-1.4.1")
	if err := fx.RegisterExperiment(&core.Experiment{
		Name: "nginx_bench",
		Kind: core.KindThroughputLatency,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.ServerBenchRunner{
				App:      "nginx",
				Duration: 300 * time.Millisecond,
				Workers:  4,
			}, nil
		},
		Collect:  core.NetCollect,
		CSVKinds: core.NetCSVKinds(),
	}); err != nil {
		b.Fatal(err)
	}
	var peakGCC, peakClang float64
	for i := 0; i < b.N; i++ {
		report, err := fx.Run(context.Background(), core.Config{
			Experiment: "nginx_bench",
			BuildTypes: []string{"gcc_native", "clang_native"},
		})
		if err != nil {
			b.Fatal(err)
		}
		types, _ := report.Table.Strings("type")
		tput, _ := report.Table.Floats("throughput")
		lat, _ := report.Table.Floats("latency_ms")
		peakGCC, peakClang = 0, 0
		var rows string
		for j := range types {
			rows += fmt.Sprintf("%-14s tput=%8.0f req/s  lat=%8.2f ms\n", types[j], tput[j], lat[j])
			switch types[j] {
			case "gcc_native":
				if tput[j] > peakGCC {
					peakGCC = tput[j]
				}
			case "clang_native":
				if tput[j] > peakClang {
					peakClang = tput[j]
				}
			}
		}
		printTable("Figure 7: nginx throughput-latency sweep", rows)
	}
	b.ReportMetric(peakGCC, "gcc-peak-rps")
	b.ReportMetric(peakClang, "clang-peak-rps")
	// Shape: Clang saturates at or below GCC. The live peaks above follow
	// the machine's load, so the assert is on what sets them: the runner
	// scales each type's per-request work by its modeled cycles for the
	// server workload, and more work per request means a lower knee.
	gccCycles, clangCycles := nginxModeledCycles(b, fx, "gcc_native"), nginxModeledCycles(b, fx, "clang_native")
	b.ReportMetric(clangCycles/gccCycles, "clang-gcc-work-ratio")
	if clangCycles < gccCycles {
		b.Fatalf("clang models %v cycles per request, below gcc's %v — shape violated", clangCycles, gccCycles)
	}
}

// nginxModeledCycles returns the modeled cycles of one nginx request
// batch under a build type's artifact: the cost the throughput–latency
// runner scales the server's per-request work by.
func nginxModeledCycles(b *testing.B, fx *core.Fex, buildType string) float64 {
	b.Helper()
	w, err := fx.Registry().Lookup("applications", "nginx")
	if err != nil {
		b.Fatal(err)
	}
	artifact, err := fx.Artifact(w, buildType, false)
	if err != nil {
		b.Fatal(err)
	}
	counters, err := w.Run(w.DefaultInput(workload.SizeTest), 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := measure.Model(counters, artifact.Cost, 1)
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// BenchmarkTable1_SupportedInventory regenerates Table I from the live
// registries.
func BenchmarkTable1_SupportedInventory(b *testing.B) {
	fx := newFexB(b)
	var inv core.Inventory
	for i := 0; i < b.N; i++ {
		inv = fx.BuildInventory()
	}
	printTable("Table I: currently supported experiments", inv.String())
	b.ReportMetric(float64(len(inv.BenchmarkSuites)), "suites")
	b.ReportMetric(float64(len(inv.Types)), "build-types")
	b.ReportMetric(float64(len(inv.Plots)), "plot-kinds")
}

// BenchmarkTable2_RIPESecurity regenerates Table II: RIPE successful and
// failed attack counts for GCC and Clang native builds.
func BenchmarkTable2_RIPESecurity(b *testing.B) {
	fx := newFexB(b, "gcc-6.1", "clang-3.8.0", "ripe")
	var gccSucc, clangSucc float64
	for i := 0; i < b.N; i++ {
		report, err := fx.Run(context.Background(), core.Config{
			Experiment: "ripe",
			BuildTypes: []string{"gcc_native", "clang_native"},
		})
		if err != nil {
			b.Fatal(err)
		}
		printTable("Table II: RIPE security benchmark results", report.Table.String())
		types, _ := report.Table.Strings("type")
		succ, _ := report.Table.Floats("successful")
		for j := range types {
			switch types[j] {
			case "gcc_native":
				gccSucc = succ[j]
			case "clang_native":
				clangSucc = succ[j]
			}
		}
	}
	if gccSucc != 64 || clangSucc != 38 {
		b.Fatalf("got gcc=%v clang=%v, want 64/38 (Table II)", gccSucc, clangSucc)
	}
	b.ReportMetric(gccSucc, "gcc-successful")
	b.ReportMetric(clangSucc, "clang-successful")
}

// BenchmarkTable3_ExtensionEffort regenerates the §IV effort evaluation:
// LoC of the three case-study extension units, measured over this
// repository with a real LoC counter.
func BenchmarkTable3_ExtensionEffort(b *testing.B) {
	var results []core.EffortResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = core.MeasureEffort(".", core.CaseStudyUnits())
		if err != nil {
			b.Fatal(err)
		}
	}
	var rows string
	byName := map[string]core.EffortResult{}
	for _, r := range results {
		rows += fmt.Sprintf("%-10s paper=%4d LoC   measured=%4d LoC (%d files)\n",
			r.Name, r.PaperLoC, r.MeasuredLoC, r.Files)
		byName[r.Name] = r
		b.ReportMetric(float64(r.MeasuredLoC), r.Name+"-loc")
	}
	printTable("Extension effort (paper vs measured)", rows)
	// Shape: every unit in the low hundreds, ordering RIPE < Nginx < SPLASH.
	if !(byName["ripe"].MeasuredLoC < byName["nginx"].MeasuredLoC &&
		byName["nginx"].MeasuredLoC < byName["splash-3"].MeasuredLoC) {
		b.Fatalf("effort ordering violated: %+v", results)
	}
}

// BenchmarkFigureA_ImageSize regenerates the §II-A footnote: the shipped
// image is ~1.04 GB (122 MB Ubuntu + 300 MB sources + helpers), versus
// ~17 GB for a fully pre-installed image.
func BenchmarkFigureA_ImageSize(b *testing.B) {
	var im *container.Image
	for i := 0; i < b.N; i++ {
		var err error
		im, err = container.BuildBaseImage(container.BaseImageConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var rows string
	for _, part := range im.Breakdown() {
		rows += fmt.Sprintf("%-20s %7.1f MB\n", part.Layer, float64(part.Bytes)/(1<<20))
	}
	rows += fmt.Sprintf("%-20s %7.2f GB (fully installed: %d GB)\n",
		"total", float64(im.Size())/(1<<30), container.FullyInstalledBytes/(1<<30))
	printTable("Image size breakdown (§II-A footnote)", rows)
	b.ReportMetric(float64(im.Size())/(1<<30), "image-GB")
}

// BenchmarkAblation_RebuildVsNoBuild quantifies the cost of the paper's
// rebuild-before-every-experiment rule against --no-build reuse.
func BenchmarkAblation_RebuildVsNoBuild(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noBuild bool
	}{{"rebuild", false}, {"no-build", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			fx := newFexB(b, "gcc-6.1")
			cfg := core.Config{
				Experiment: "micro",
				BuildTypes: []string{"gcc_native"},
				Benchmarks: []string{"array_read"},
				Input:      workload.SizeTest,
				NoBuild:    mode.noBuild,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.noBuild {
					// Cross-experiment artifact sharing keeps the previous
					// iteration's builds warm; wipe them so every iteration
					// pays the full rebuild this arm quantifies.
					if err := fx.BuildSystem().CleanBuild(); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := fx.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DryRun quantifies the Phoenix dry-run hook's cost
// (the per_benchmark_action of §II-A).
func BenchmarkAblation_DryRun(b *testing.B) {
	fx := newFexB(b, "gcc-6.1")
	noDry := core.Hooks{
		PerBenchmarkAction: func(rc *core.RunContext, buildType string, w workload.Workload) error {
			_, err := rc.Fex.Artifact(w, buildType, rc.Config.Debug)
			return err
		},
	}
	for _, mode := range []struct {
		name  string
		hooks core.Hooks
	}{{"with-dry-run", core.Hooks{}}, {"without-dry-run", noDry}} {
		mode := mode
		// Register outside the measured callback: the benchmark framework
		// re-invokes the callback while calibrating b.N.
		name := "phoenix_dry_" + mode.name
		if err := fx.RegisterExperiment(&core.Experiment{
			Name: name,
			Kind: core.KindPerformance,
			NewRunner: func(fx *core.Fex) (core.Runner, error) {
				return &core.BenchRunner{Suite: "phoenix", Hooks: mode.hooks}, nil
			},
			Collect: core.GenericCollect,
		}); err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.Config{
				Experiment: name,
				BuildTypes: []string{"gcc_native"},
				Benchmarks: []string{"histogram"},
				Input:      workload.SizeTest,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fx.Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ThreadScaling reports the modeled speedup of the fft
// kernel across thread counts (the -m sweep behind the lineplot family).
// The m=1 baseline is computed once before the subtests, so -bench
// filters that select a single thread count still report a real speedup
// instead of a bogus 0.
func BenchmarkAblation_ThreadScaling(b *testing.B) {
	gcc := toolchain.GCC()
	w := mustLookup(b)
	artifact, err := gcc.Compile(toolchain.SourceUnit{
		Benchmark: w, CFLAGS: []string{"-O2"}, BuildType: "gcc_native",
	})
	if err != nil {
		b.Fatal(err)
	}
	in := w.DefaultInput(workload.SizeSmall)
	baseSample, err := artifact.ExecuteUncached(in, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := baseSample.Cycles
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		b.Run(fmt.Sprintf("m=%d", threads), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s, err := artifact.Execute(in, threads)
				if err != nil {
					b.Fatal(err)
				}
				cycles = s.Cycles
			}
			b.ReportMetric(cycles, "modeled-cycles")
			b.ReportMetric(base/cycles, "speedup")
		})
	}
}

// BenchmarkAblation_MemoizedReps quantifies the memoized execution
// engine: a repetition-heavy splash cell (-r 32) with the memo on versus
// -no-memo. With memoization, 31 of the 32 repetitions per thread count
// are O(1) model evaluations instead of kernel executions, so the run
// must finish at least 5x faster while collecting a byte-identical CSV
// (wall time is modeled, so every metric is machine-independent).
func BenchmarkAblation_MemoizedReps(b *testing.B) {
	fx := newFexB(b, "gcc-6.1", "splash_inputs")
	cfg := core.Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft"},
		Reps:       32,
		Input:      workload.SizeSmall,
	}
	var speedup float64
	var memoCSV, noMemoCSV string
	for i := 0; i < b.N; i++ {
		cfg.NoMemo = false
		start := time.Now()
		memoReport, err := fx.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		memoized := time.Since(start)

		cfg.NoMemo = true
		start = time.Now()
		noMemoReport, err := fx.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		uncached := time.Since(start)

		speedup = uncached.Seconds() / memoized.Seconds()
		memoCSV = memoReport.Table.CSVString()
		noMemoCSV = noMemoReport.Table.CSVString()
	}
	if memoCSV != noMemoCSV {
		b.Fatalf("collected CSV differs between memoized and -no-memo runs:\n--- memo ---\n%s\n--- no-memo ---\n%s",
			memoCSV, noMemoCSV)
	}
	if speedup < 5 {
		b.Fatalf("memoized -r 32 speedup %.2fx below the 5x floor", speedup)
	}
	printTable("Memoized execution engine (-r 32, splash/fft)",
		fmt.Sprintf("no-memo=32 kernel runs  memo=1 kernel run + 31 model evals  speedup=%.1fx\n", speedup))
	b.ReportMetric(speedup, "memo-speedup")
}

// warmResolveOps resolves a 1000-cell warm resume through one BulkGet
// on a cold store and returns the vfs operations it took: one read per
// cell.
func warmResolveOps(tb testing.TB) uint64 {
	const cells = 1000
	fsys := vfs.New()
	s := store.New(fsys, "/fex/store")
	fps := make([]store.Fingerprint, cells)
	for i := range fps {
		fps[i] = store.Fingerprint{
			Experiment: "ablation",
			Suite:      "splash",
			Benchmark:  fmt.Sprintf("bench%04d", i),
			BuildType:  "gcc_native",
			Threads:    []int{1},
			Reps:       "2",
		}
		if err := s.Put(fps[i], []byte(fmt.Sprintf("RUN|cell=%d\n", i))); err != nil {
			tb.Fatal(err)
		}
	}
	cold := store.New(fsys, "/fex/store")
	before := fsys.Ops()
	results, err := cold.BulkGet(fps)
	if err != nil {
		tb.Fatal(err)
	}
	ops := fsys.Ops() - before
	for j, r := range results {
		if !r.Present || r.Err != nil {
			tb.Fatalf("bulk result %d: present=%t err=%v", j, r.Present, r.Err)
		}
	}
	return ops
}

// BenchmarkAblation_ParallelScaling demonstrates the -jobs experiment
// scheduler: a 4-benchmark suite whose per-run action models one
// fixed-length measurement period. Jobs: 4 must cut wall-clock time at
// least 2× versus the paper-faithful serial loop while collecting a
// byte-identical CSV (the scheduler's determinism contract).
func BenchmarkAblation_ParallelScaling(b *testing.B) {
	const measurementPeriod = 20 * time.Millisecond
	fx := newFexB(b)
	hooks := core.Hooks{
		// No real builds: the cells' cost is purely the measurement period,
		// so the timing isolates scheduling behaviour.
		PerBenchmarkAction: func(rc *core.RunContext, buildType string, w workload.Workload) error {
			return nil
		},
		PerRunAction: func(rc *core.RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
			time.Sleep(measurementPeriod)
			return measure.FromMap(map[string]float64{"cycles": float64(len(w.Name())*1000 + threads)}), nil
		},
	}
	if err := fx.RegisterExperiment(&core.Experiment{
		Name: "parallel_scaling",
		Kind: core.KindPerformance,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.BenchRunner{Suite: "splash", Hooks: hooks}, nil
		},
		Collect: core.GenericCollect,
	}); err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Experiment: "parallel_scaling",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu", "radix", "ocean"},
		Input:      workload.SizeTest,
	}
	var speedup float64
	var serialCSV, parallelCSV string
	for i := 0; i < b.N; i++ {
		cfg.Jobs = 1
		start := time.Now()
		serialReport, err := fx.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		serial := time.Since(start)

		cfg.Jobs = 4
		start = time.Now()
		parallelReport, err := fx.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		parallel := time.Since(start)

		speedup = serial.Seconds() / parallel.Seconds()
		serialCSV = serialReport.Table.CSVString()
		parallelCSV = parallelReport.Table.CSVString()
	}
	if serialCSV != parallelCSV {
		b.Fatalf("collected CSV differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s",
			serialCSV, parallelCSV)
	}
	if speedup < 2 {
		b.Fatalf("jobs=4 speedup %.2fx below the 2x floor on a 4-benchmark suite", speedup)
	}
	printTable("Parallel scheduler scaling (4 benchmarks, jobs=4)",
		fmt.Sprintf("serial=4x%v  parallel~1x%v  speedup=%.2fx\n",
			measurementPeriod, measurementPeriod, speedup))
	b.ReportMetric(speedup, "jobs4-speedup")
}

// BenchmarkModeledRepetition measures the steady-state measurement hot
// path — memoized execution, pooled metric collection, log-record render
// — and reports its allocation count, which the zero-allocation pipeline
// pins at 0 allocs/op.
func BenchmarkModeledRepetition(b *testing.B) {
	gcc := toolchain.GCC()
	w := mustLookup(b)
	artifact, err := gcc.Compile(toolchain.SourceUnit{
		Benchmark: w, CFLAGS: []string{"-O2"}, BuildType: "gcc_native",
	})
	if err != nil {
		b.Fatal(err)
	}
	in := w.DefaultInput(workload.SizeTest)
	lw := runlog.NewWriter(io.Discard)
	tool := measure.PerfStat{}
	oneRep := func(rep int) {
		s, err := artifact.Execute(in, 1)
		if err != nil {
			b.Fatal(err)
		}
		mv := measure.AcquireMetricVector()
		tool.Collect(s, mv)
		mv.Set("wall_ns", float64(s.ModeledWall().Nanoseconds()))
		lw.WriteMeasurement(runlog.Measurement{
			Suite: w.Suite(), Benchmark: w.Name(), BuildType: "gcc_native",
			Threads: 1, Rep: rep, Values: mv,
		})
		mv.Release()
	}
	oneRep(0) // warm the memo, the pool, and the writer's buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oneRep(i)
	}
}

// BenchmarkAblation_RepetitionEstimate exercises the Kalibera–Jones-style
// repetition estimator over a realistic pilot sample (the statistics the
// paper lists as future work).
func BenchmarkAblation_RepetitionEstimate(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = requiredReps(b)
	}
	b.ReportMetric(float64(n), "required-reps")
}

// requiredReps is the estimator's answer for the ablation's pilot sample
// at 95% confidence and 1% relative width.
func requiredReps(tb testing.TB) int {
	pilot := []float64{100.2, 99.1, 101.7, 100.9, 98.8, 100.4, 99.7, 101.1}
	n, err := stats.RequiredRepetitions(pilot, 0.95, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkAblation_PlanAhead quantifies the run planner (plan.go) on the
// three behaviours it adds over per-cell decisions:
//
//	(a) in-run dedup — a duplicated-sweep config (the same benchmark
//	    listed multiple times in -b) measures each distinct cell once;
//	    kernel executions (measured repetitions) saved versus the
//	    -no-dedup baseline, with byte-identical collected CSVs;
//	(b) build/measurement pipelining on a half-warm two-config session
//	    (the "fex diff" shape: config A cold, config B resumed with one
//	    extra build type) — the warm type's build is skipped and the
//	    cold type's cells start the moment its own build finishes, so
//	    time-to-first-measurement stays ~one build period instead of
//	    all-builds;
//	(c) a 100%-warm resume performs zero buildsys.Build calls.
func BenchmarkAblation_PlanAhead(b *testing.B) {
	const buildDelay = 40 * time.Millisecond
	var dedupExecs, rawExecs float64
	var dedupCSV, rawCSV string
	var ttfm time.Duration
	warmBuilds := -1

	for i := 0; i < b.N; i++ {
		dedup, raw, dcsv, rcsv := planDedupExecs(b)
		dedupExecs, rawExecs, dedupCSV, rawCSV = float64(dedup), float64(raw), dcsv, rcsv

		// (b) Half-warm two-config session: config A measures gcc_native
		// cold; config B resumes with clang_native added. The planner
		// skips the all-warm gcc build, so the first measurement lands
		// after ~one modeled build period, not two.
		var start time.Time
		var firstNS atomic.Int64
		sessionHooks := core.Hooks{
			PerTypeAction: func(rc *core.RunContext, buildType string) error {
				time.Sleep(buildDelay) // models one build
				return nil
			},
			PerBenchmarkAction: func(rc *core.RunContext, buildType string, w workload.Workload) error {
				return nil
			},
			PerRunAction: func(rc *core.RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
				firstNS.CompareAndSwap(0, int64(time.Since(start)))
				return measure.FromMap(map[string]float64{"cycles": float64(threads*10 + rep)}), nil
			},
		}
		sfx := newFexB(b)
		if err := sfx.RegisterExperiment(&core.Experiment{
			Name: "plan_diff",
			Kind: core.KindPerformance,
			NewRunner: func(fx *core.Fex) (core.Runner, error) {
				return &core.BenchRunner{Suite: "splash", Hooks: sessionHooks}, nil
			},
			Collect: core.GenericCollect,
		}); err != nil {
			b.Fatal(err)
		}
		cfgA := core.Config{
			Experiment: "plan_diff",
			BuildTypes: []string{"gcc_native"},
			Benchmarks: []string{"fft", "lu"},
			Reps:       2,
			Input:      workload.SizeTest,
		}
		start = time.Now()
		if _, err := sfx.Run(context.Background(), cfgA); err != nil {
			b.Fatal(err)
		}
		cfgB := cfgA
		cfgB.BuildTypes = []string{"gcc_native", "clang_native"}
		cfgB.Resume = true
		cfgB.Jobs = 2
		firstNS.Store(0)
		start = time.Now()
		if _, err := sfx.Run(context.Background(), cfgB); err != nil {
			b.Fatal(err)
		}
		ttfm = time.Duration(firstNS.Load())

		warmBuilds = planWarmResumeBuilds(b)
	}

	if dedupCSV != rawCSV {
		b.Fatalf("deduped CSV differs from -no-dedup baseline:\n--- no-dedup ---\n%s\n--- deduped ---\n%s", rawCSV, dedupCSV)
	}
	if dedupExecs >= rawExecs {
		b.Fatalf("dedup saved no kernel executions: %.0f vs %.0f undeduped", dedupExecs, rawExecs)
	}
	// Old all-builds-first behaviour puts the first measurement after both
	// build periods (~2×buildDelay); the pipelined plan with the warm type
	// skipped lands it after ~1×. 1.75× splits the two regimes with slack.
	if limit := time.Duration(1.75 * float64(buildDelay)); ttfm >= limit {
		b.Fatalf("time-to-first-measurement %v on the half-warm session; want < %v (warm build skipped, builds pipelined)", ttfm, limit)
	}
	if warmBuilds != 0 {
		b.Fatalf("fully-warm resume performed %d builds, want 0", warmBuilds)
	}
	printTable("Plan-ahead execution (dedup, build skipping, pipelining)",
		fmt.Sprintf("dedup=%.0f execs  no-dedup=%.0f execs  saved=%.1fx\nhalf-warm ttfm=%v (build=%v)  warm-resume builds=%d\n",
			dedupExecs, rawExecs, rawExecs/dedupExecs, ttfm.Round(time.Millisecond), buildDelay, warmBuilds))
	b.ReportMetric(dedupExecs, "dedup-execs")
	b.ReportMetric(rawExecs, "nodedup-execs")
	b.ReportMetric(rawExecs/dedupExecs, "exec-savings")
	b.ReportMetric(float64(ttfm.Milliseconds()), "halfwarm-ttfm-ms")
	b.ReportMetric(float64(warmBuilds), "warmresume-builds")
}

// planDedupExecs runs the PlanAhead dedup ablation: a duplicated-sweep
// config (5 positions per type, 2 distinct; threads {1,2} x 4 reps)
// with and without in-run dedup, returning the kernel executions and
// the collected CSV of each.
func planDedupExecs(tb testing.TB) (dedup, raw int64, dedupCSV, rawCSV string) {
	var execs atomic.Int64
	fx := newFexB(tb)
	hooks := core.Hooks{
		PerBenchmarkAction: func(rc *core.RunContext, buildType string, w workload.Workload) error {
			return nil
		},
		PerRunAction: func(rc *core.RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
			execs.Add(1) // each call stands for one kernel execution
			return measure.FromMap(map[string]float64{"cycles": float64(len(w.Name())*1000 + threads*10 + rep)}), nil
		},
	}
	if err := fx.RegisterExperiment(&core.Experiment{
		Name: "plan_dedup",
		Kind: core.KindPerformance,
		NewRunner: func(fx *core.Fex) (core.Runner, error) {
			return &core.BenchRunner{Suite: "splash", Hooks: hooks}, nil
		},
		Collect: core.GenericCollect,
	}); err != nil {
		tb.Fatal(err)
	}
	cfg := core.Config{
		Experiment: "plan_dedup",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "fft", "lu", "fft"},
		Threads:    []int{1, 2},
		Reps:       4,
		Input:      workload.SizeTest,
	}
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	dedup, dedupCSV = execs.Load(), report.Table.CSVString()

	execs.Store(0)
	cfg.NoDedup = true
	if report, err = fx.Run(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
	return dedup, execs.Load(), dedupCSV, report.Table.CSVString()
}

// planWarmResumeBuilds counts the buildsys.Build calls of a fully-warm
// -resume rerun of a real experiment.
func planWarmResumeBuilds(tb testing.TB) int {
	fx := newFexB(tb, "gcc-6.1", "clang-3.8.0")
	cfg := core.Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
	}
	if _, err := fx.Run(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
	before := fx.BuildSystem().Builds()
	cfg.Resume = true
	if _, err := fx.Run(context.Background(), cfg); err != nil {
		tb.Fatal(err)
	}
	return fx.BuildSystem().Builds() - before
}

// TestAblationCounters pins the machine-independent counters of the
// ablation benchmarks exactly, so a change to the store's read path, the
// planner's dedup or build skipping, or the repetition estimator shows
// up in the ordinary test run rather than only in a benchmark's output.
func TestAblationCounters(t *testing.T) {
	if ops := warmResolveOps(t); ops != 1000 {
		t.Errorf("1000-cell warm resolve: %d vfs ops, want 1000", ops)
	}
	dedup, raw, dedupCSV, rawCSV := planDedupExecs(t)
	if dedup != 32 || raw != 80 {
		t.Errorf("duplicated sweep: %d kernel executions deduped, %d with -no-dedup; want 32 and 80", dedup, raw)
	}
	if dedupCSV != rawCSV {
		t.Errorf("deduped CSV differs from -no-dedup baseline:\n--- no-dedup ---\n%s\n--- deduped ---\n%s", rawCSV, dedupCSV)
	}
	if n := planWarmResumeBuilds(t); n != 0 {
		t.Errorf("fully-warm resume performed %d builds, want 0", n)
	}
	if n := requiredReps(t); n != 7 {
		t.Errorf("required repetitions %d, want 7", n)
	}
	if parsed, logLen := clusterParsedBytes(t); parsed != logLen {
		t.Errorf("cold two-host run parsed %d log bytes, want exactly the log's %d", parsed, logLen)
	}
}

// clusterParsedBytes runs a cold two-host experiment without duplicate
// cells or speculative copies and returns the log bytes parsed during
// the run and the length of the stored log. Every record is parsed once
// — remote shards on arrival, the header and environment as they are
// written — so the two are equal.
func clusterParsedBytes(tb testing.TB) (parsed, logLen uint64) {
	fx := newFexB(tb, "gcc-6.1", "clang-3.8.0")
	cfg := core.Config{
		Experiment:  "splash",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft", "lu", "radix"},
		Threads:     []int{1, 2},
		Reps:        2,
		Input:       workload.SizeTest,
		Hosts:       []string{"w1", "w2"},
		NoDedup:     true,
		NoSpeculate: true,
	}
	before := runlog.ParsedBytes()
	report, err := fx.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	parsed = runlog.ParsedBytes() - before
	lg, err := fx.ReadResult(report.RunLogPath)
	if err != nil {
		tb.Fatal(err)
	}
	return parsed, uint64(len(lg))
}

// BenchmarkRIPEMatrix measures raw testbed evaluation speed (850 attack
// forms per iteration).
func BenchmarkRIPEMatrix(b *testing.B) {
	prof := toolchain.GCC()
	artifact, err := prof.Compile(toolchain.SourceUnit{
		Benchmark: mustLookup(b), CFLAGS: []string{"-O2"}, BuildType: "gcc_native",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := security.RunTestbed("gcc_native", artifact.Security)
		if res.Total() != 850 {
			b.Fatal("matrix size changed")
		}
	}
}

// mustLookup returns the fft workload via a fresh registry.
func mustLookup(b *testing.B) workload.Workload {
	b.Helper()
	fx, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	w, err := fx.Registry().Lookup("splash", "fft")
	if err != nil {
		b.Fatal(err)
	}
	return w
}
