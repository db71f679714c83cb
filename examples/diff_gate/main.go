// Diff_gate demonstrates the cross-run differential analyzer: comparing
// two stored run sets statistically ("fex diff") and gating CI on the
// verdict ("fex gate").
//
// The walkthrough:
//
//  1. run the micro suite and export the result
//     store as a baseline directory — the committable run-set format;
//  2. run the same configuration again on a completely fresh framework
//     and diff it against the baseline: every cell joins, and with
//     modeled (machine-independent) time there are zero significant
//     deltas — the gate passes;
//  3. simulate a regressed candidate by scaling one build type's wall
//     time and diff again: the regression is flagged with a p-value and
//     disjoint confidence intervals, a 10% gate fails, a 50% gate
//     tolerates it, and the report renders as a table, a speedup chart,
//     and canonical JSON.
//
// This is how fex gates itself in CI: a baseline exported from a known-
// good run is committed, and every build re-runs the experiment and
// gates against it.
package main

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"

	"fex/internal/core"
	"fex/internal/diff"
	"fex/internal/testutil"
	"fex/internal/workload"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "diff_gate:", err)
		os.Exit(1)
	}
}

// runOnce executes the shared experiment configuration on a fresh
// framework and returns its result store as a run set.
func runOnce(source string) (*diff.RunSet, error) {
	fx, err := core.New(core.Options{Now: testutil.Clock()})
	if err != nil {
		return nil, err
	}
	if _, err := fx.Install("gcc-6.1"); err != nil {
		return nil, err
	}
	if _, err := fx.Run(context.Background(), core.Config{
		Experiment: "micro",
		BuildTypes: []string{"gcc_native", "gcc_asan"},
		Benchmarks: []string{"array_read", "branch_heavy"},
		Input:      workload.SizeTest,
		Reps:       3,
	}); err != nil {
		return nil, err
	}
	return diff.FromStore(fx.ResultStore(), source)
}

// run executes the walkthrough. Both compared runs are already fully
// deterministic (fixed clock, modeled time), so the deterministic flag
// only matches the golden harness's calling convention.
func run(deterministic bool) error {
	_ = deterministic

	// --- 1. baseline run, exported as a committable directory -----------
	fmt.Println("== baseline run (exported to ./baseline)")
	baseline, err := runOnce("baseline-run")
	if err != nil {
		return err
	}
	if err := diff.WriteDir(baseline, "baseline"); err != nil {
		return err
	}
	fmt.Printf("   %d cells, digest %.12s\n", len(baseline.Cells), baseline.Digest())

	// --- 2. fresh candidate run, diffed against the baseline ------------
	fmt.Println("== candidate rerun on a fresh framework")
	baseBack, err := diff.LoadDir("baseline")
	if err != nil {
		return err
	}
	candidate, err := runOnce("candidate-run")
	if err != nil {
		return err
	}
	report, err := diff.Compare(baseBack, candidate, diff.Options{})
	if err != nil {
		return err
	}
	text, err := report.AppendText(nil)
	if err != nil {
		return err
	}
	os.Stdout.Write(text)
	if n := len(report.Significant()); n != 0 {
		return fmt.Errorf("identical modeled runs produced %d significant deltas", n)
	}
	if gate := report.Gate(0); !gate.OK() {
		return fmt.Errorf("gate failed on identical runs: %s", gate)
	}
	fmt.Println("   zero significant deltas; gate passes")

	// --- 3. a planted regression trips the gate --------------------------
	fmt.Println("== planted +35% regression in gcc_asan")
	slow, err := plantRegression(candidate, "gcc_asan", 1.35)
	if err != nil {
		return err
	}
	slowReport, err := diff.Compare(baseBack, slow, diff.Options{})
	if err != nil {
		return err
	}
	slowText, err := slowReport.AppendText(nil)
	if err != nil {
		return err
	}
	os.Stdout.Write(slowText)
	if err := os.WriteFile("diff.txt", slowText, 0o644); err != nil {
		return err
	}
	strict := slowReport.Gate(10)
	if strict.OK() {
		return fmt.Errorf("10%% gate missed the planted regression")
	}
	fmt.Println("   " + strict.String())
	tolerant := slowReport.Gate(50)
	if !tolerant.OK() {
		return fmt.Errorf("50%% gate failed on a 35%% regression: %s", tolerant)
	}
	fmt.Println("   " + tolerant.String())

	// The three renderings of the regression report.
	csv, err := slowReport.CSV()
	if err != nil {
		return err
	}
	if err := os.WriteFile("fexdiff.csv", csv, 0o644); err != nil {
		return err
	}
	js, err := diff.EncodeReport(slowReport)
	if err != nil {
		return err
	}
	if err := os.WriteFile("fexdiff.json", js, 0o644); err != nil {
		return err
	}
	// The canonical JSON round-trips strictly.
	if _, err := diff.DecodeReport(js); err != nil {
		return fmt.Errorf("report does not round-trip: %w", err)
	}
	svg, err := slowReport.ChartSVG()
	if err != nil {
		return err
	}
	if err := os.WriteFile("fexdiff.svg", []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote diff.txt, fexdiff.csv, fexdiff.json, fexdiff.svg")
	fmt.Println("diff_gate complete")
	return nil
}

// plantRegression copies a run set, scaling every wall_ns sample of the
// given build type by factor — a synthetic "the new compiler made ASan
// builds slower" candidate.
func plantRegression(rs *diff.RunSet, buildType string, factor float64) (*diff.RunSet, error) {
	wallRe := regexp.MustCompile(`wall_ns=([0-9.e+\-]+)`)
	out := &diff.RunSet{Source: "regressed-run", Cells: append([]diff.Cell(nil), rs.Cells...)}
	for i, c := range out.Cells {
		if c.Fingerprint.BuildType != buildType {
			continue
		}
		var replaceErr error
		out.Cells[i].Payload = wallRe.ReplaceAllFunc(append([]byte(nil), c.Payload...), func(m []byte) []byte {
			v, err := strconv.ParseFloat(string(m[len("wall_ns="):]), 64)
			if err != nil {
				replaceErr = err
				return m
			}
			return []byte("wall_ns=" + strconv.FormatFloat(v*factor, 'g', -1, 64))
		})
		if replaceErr != nil {
			return nil, replaceErr
		}
	}
	return out, nil
}
