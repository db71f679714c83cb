// Cluster_scaling demonstrates the distributed execution tier: the same
// experiment run serially, on the local parallel scheduler, and fanned
// out across a cluster of worker hosts — with byte-identical results in
// all three modes.
//
// The paper lists distributed experiments as future work ("e.g., using
// the Fabric library", §IV-B); this walkthrough shows the reproduction's
// version of it:
//
//  1. run the splash suite serially (the paper-faithful loop),
//  2. run it again with -jobs 4 (local worker pool),
//  3. run it again with -hosts w1,w2,w3 (cluster workers, one container
//     and build system per host),
//  4. prove all three stored logs and CSVs are byte-identical,
//  5. kill a host mid-cluster-run and show failover keeps the result
//     byte-identical anyway.
//
// Wall time is modeled, a pure function of the workload, so the
// comparison covers every byte of the log.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"fex/internal/core"
	"fex/internal/remote"
	"fex/internal/workload"
)

func main() {
	if err := run(false); err != nil {
		fmt.Fprintln(os.Stderr, "cluster_scaling:", err)
		os.Exit(1)
	}
}

// fixedClock keeps the log header timestamp identical across the compared
// runs (a real deployment compares runs from one invocation's clock).
func fixedClock() time.Time { return time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC) }

// runSplash executes the splash experiment on a fresh framework with the
// given scheduling configuration and returns the stored log and CSV.
func runSplash(cluster *remote.Cluster, jobs int, hosts []string) (string, string, time.Duration, error) {
	fx, err := core.New(core.Options{Now: fixedClock, Cluster: cluster})
	if err != nil {
		return "", "", 0, err
	}
	for _, artifact := range []string{"gcc-6.1", "clang-3.8.0"} {
		if _, err := fx.Install(artifact); err != nil {
			return "", "", 0, err
		}
	}
	start := time.Now()
	report, err := fx.Run(context.Background(), core.Config{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Threads:    []int{1, 2},
		Reps:       2,
		Input:      workload.SizeTest,
		Jobs:       jobs,
		Hosts:      hosts,
	})
	if err != nil {
		return "", "", 0, err
	}
	elapsed := time.Since(start)
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		return "", "", 0, err
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		return "", "", 0, err
	}
	return string(lg), string(csv), elapsed, nil
}

// run executes the walkthrough. The compared runs are already fully
// deterministic (fixed clock, modeled time) — that is the point of the
// example — so the deterministic flag only matches the golden harness's
// calling convention.
func run(deterministic bool) error {
	_ = deterministic
	fmt.Println("== serial run (-jobs 1, the paper's loop)")
	serialLog, serialCSV, serialT, err := runSplash(nil, 1, nil)
	if err != nil {
		return err
	}
	fmt.Printf("   done in %v\n", serialT.Round(time.Millisecond))

	fmt.Println("== local parallel run (-jobs 4)")
	parLog, parCSV, parT, err := runSplash(nil, 4, nil)
	if err != nil {
		return err
	}
	fmt.Printf("   done in %v\n", parT.Round(time.Millisecond))

	fmt.Println("== cluster run (-hosts w1,w2,w3)")
	clusterLog, clusterCSV, clusterT, err := runSplash(nil, 1, []string{"w1", "w2", "w3"})
	if err != nil {
		return err
	}
	fmt.Printf("   done in %v\n", clusterT.Round(time.Millisecond))

	if parLog != serialLog || clusterLog != serialLog {
		return fmt.Errorf("determinism contract violated: run logs differ across modes")
	}
	if parCSV != serialCSV || clusterCSV != serialCSV {
		return fmt.Errorf("determinism contract violated: CSVs differ across modes")
	}
	fmt.Println("   logs and CSVs byte-identical across serial, parallel, and cluster")
	// Export the (shared) artifacts for inspection and the golden harness.
	if err := os.WriteFile("splash.log", []byte(serialLog), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile("splash.csv", []byte(serialCSV), 0o644); err != nil {
		return err
	}

	// Failover: take one host down before the run; its cells move to the
	// surviving hosts and the stored result does not change by one byte.
	fmt.Println("== cluster run with w2 down (failover)")
	cluster := remote.NewCluster()
	for _, h := range []string{"w1", "w2", "w3"} {
		if _, err := cluster.Ensure(h); err != nil {
			return err
		}
	}
	w2, err := cluster.Host("w2")
	if err != nil {
		return err
	}
	w2.SetUnreachable(true)
	failLog, failCSV, failT, err := runSplash(cluster, 1, []string{"w1", "w2", "w3"})
	if err != nil {
		return err
	}
	fmt.Printf("   done in %v on the 2 surviving hosts\n", failT.Round(time.Millisecond))
	if failLog != serialLog || failCSV != serialCSV {
		return fmt.Errorf("failover perturbed the stored results")
	}
	fmt.Println("   output still byte-identical: the outage is invisible in the experiment record")
	fmt.Println("cluster_scaling complete")
	return nil
}
