// Splash_compare reproduces Figure 6 of the paper: the Clang-vs-GCC
// comparison on the SPLASH-3 suite, run end to end through the framework —
// the §IV-A case study ("fex.py run -n splash -t gcc_native clang_native").
//
// Output: a table of per-benchmark normalized runtimes (w.r.t. native
// GCC), the "All" geometric mean, and splash_fig6.svg.
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"fex/internal/core"
	"fex/internal/stats"
	"fex/internal/testutil"
	"fex/internal/workload"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "splash_compare:", err)
		os.Exit(1)
	}
}

// run executes the case study; deterministic mode (the golden end-to-end
// test) pins the clock so the exported artifacts are byte-stable (wall
// time is always modeled).
func run(deterministic bool) error {
	opts := core.Options{}
	if deterministic {
		opts.Now = testutil.Clock()
	}
	fx, err := core.New(opts)
	if err != nil {
		return err
	}
	// Setup stage: both compilers, pinned versions.
	for _, artifact := range []string{"gcc-6.1", "clang-3.8.0", "splash_inputs"} {
		if _, err := fx.Install(artifact); err != nil {
			return err
		}
	}

	// fex run -n splash -t gcc_native clang_native
	report, err := fx.Run(context.Background(), core.Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Input:      workload.SizeSmall,
		Reps:       2,
	})
	if err != nil {
		return err
	}
	if err := testutil.ExportReport(fx, report, "splash"); err != nil {
		return err
	}

	// Per-benchmark clang/gcc ratio from the collected table.
	benches, err := report.Table.Strings("bench")
	if err != nil {
		return err
	}
	types, err := report.Table.Strings("type")
	if err != nil {
		return err
	}
	cycles, err := report.Table.Floats("cycles")
	if err != nil {
		return err
	}
	byKey := map[[2]string]float64{}
	for i := range benches {
		byKey[[2]string{benches[i], types[i]}] = cycles[i]
	}
	names := map[string]bool{}
	for _, b := range benches {
		names[b] = true
	}
	ordered := make([]string, 0, len(names))
	for b := range names {
		ordered = append(ordered, b)
	}
	sort.Strings(ordered)

	fmt.Println("Figure 6 — Normalized runtime (w.r.t. native GCC)")
	fmt.Println("benchmark        Native (Clang)")
	var ratios []float64
	for _, b := range ordered {
		g := byKey[[2]string{b, "gcc_native"}]
		c := byKey[[2]string{b, "clang_native"}]
		r := c / g
		ratios = append(ratios, r)
		fmt.Printf("%-16s %.3f\n", b, r)
	}
	gm, err := stats.GeoMean(ratios)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %.3f\n", "All (geomean)", gm)

	svg, err := fx.Plot("splash", "perf")
	if err != nil {
		return err
	}
	if err := os.WriteFile("splash_fig6.svg", []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote splash_fig6.svg")
	return nil
}
