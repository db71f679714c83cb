package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	fexclock "fex/internal/clock"
	"fex/internal/measure"
	"fex/internal/remote"
	"fex/internal/workload"
)

// This file proves the self-healing cluster tier (cluster.go): host
// probation with backoff reprobes and re-admission, per-cell deadlines
// bounding hung hosts on the modeled clock, speculative straggler
// re-execution, degrade-to-local execution, provisioning-fault eviction,
// mid-run host joins, and the determinism contract under randomized fault
// schedules. Everything here runs under -race in CI; `make chaos` runs
// the seeded randomized suite with a caller-chosen seed and round count.

// faultLog is a verbose sink tests can read while the run is still
// executing (gates poll it for scheduler state transitions).
type faultLog struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *faultLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *faultLog) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// waitFor polls the verbose log until the substring appears; the run is
// wedged if it never does.
func waitFor(buf *faultLog, substr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), substr) {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %q in verbose log:\n%s", substr, buf.String())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// hostsCapture retains the latest per-host snapshot from progress events.
type hostsCapture struct {
	mu    sync.Mutex
	hosts []HostStatus
}

func (c *hostsCapture) hook(ev ProgressEvent) {
	if ev.Hosts == nil {
		return
	}
	c.mu.Lock()
	c.hosts = ev.Hosts
	c.mu.Unlock()
}

func (c *hostsCapture) find(t *testing.T, name string) HostStatus {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.hosts {
		if h.Host == name {
			return h
		}
	}
	t.Fatalf("host %s missing from snapshot %+v", name, c.hosts)
	return HostStatus{}
}

// compareToSerial asserts a fault-injected cluster run's stored bytes
// match the serial reference.
func compareToSerial(t *testing.T, fx *Fex, report *RunReport, wantLog, wantCSV, label string) {
	t.Helper()
	lg, err := fx.ReadResult(report.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := fx.ReadResult(report.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(lg) != wantLog {
		t.Errorf("%s: run log differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", label, wantLog, lg)
	}
	if string(csv) != wantCSV {
		t.Errorf("%s: CSV differs from serial:\n--- serial ---\n%s\n--- cluster ---\n%s", label, wantCSV, csv)
	}
}

// faultSchedules are the per-host fault injections the builtin-experiment
// determinism matrix is re-run under: a flapping host (a bounded outage
// that recovers via probation), a slow host with speculation racing its
// placements, the same slow host under the -no-speculate ablation, and a
// hung host bounded by the per-cell deadline. Under every schedule the
// stored log and CSV must stay byte-identical to the serial run.
var faultSchedules = []struct {
	name   string
	set    func(*Config)
	inject func(t *testing.T, cluster *remote.Cluster)
}{
	{
		name: "flap",
		set:  func(c *Config) {},
		inject: func(t *testing.T, cluster *remote.Cluster) {
			h, err := cluster.Host("w2")
			if err != nil {
				t.Fatal(err)
			}
			h.SetOutage(2)
		},
	},
	{
		name: "slow_host_speculation",
		set:  func(c *Config) {},
		inject: func(t *testing.T, cluster *remote.Cluster) {
			h, err := cluster.Host("w1")
			if err != nil {
				t.Fatal(err)
			}
			h.SetCommandLatency(cmdRunCell, 15*time.Millisecond)
		},
	},
	{
		name: "slow_host_no_speculate",
		set:  func(c *Config) { c.NoSpeculate = true },
		inject: func(t *testing.T, cluster *remote.Cluster) {
			h, err := cluster.Host("w1")
			if err != nil {
				t.Fatal(err)
			}
			h.SetCommandLatency(cmdRunCell, 15*time.Millisecond)
		},
	},
	{
		name: "hung_host_deadline",
		// Generous: legitimate cells must never time out, only the hung
		// host's placement, even on a loaded -race CI machine.
		set: func(c *Config) { c.HostTimeout = 2 * time.Second },
		inject: func(t *testing.T, cluster *remote.Cluster) {
			h, err := cluster.Host("w3")
			if err != nil {
				t.Fatal(err)
			}
			h.SetHang(nil)
		},
	},
	{
		// Host-wide transport latency skew: w1 is chronically slow on
		// every operation, so it comes back to the shared queue less
		// often and the other hosts take most cells — placement changes,
		// bytes must not.
		name: "load_skew",
		set:  func(c *Config) {},
		inject: func(t *testing.T, cluster *remote.Cluster) {
			h, err := cluster.Host("w1")
			if err != nil {
				t.Fatal(err)
			}
			h.SetLatency(3 * time.Millisecond)
		},
	},
	{
		// Slow majority: two of three hosts are slow on cell execution,
		// so the fast host takes cell after cell from the shared queue
		// while they run. -no-speculate keeps the straggler detector out
		// of it.
		name: "slow_majority",
		set:  func(c *Config) { c.NoSpeculate = true },
		inject: func(t *testing.T, cluster *remote.Cluster) {
			for _, name := range []string{"w1", "w2"} {
				h, err := cluster.Host(name)
				if err != nil {
					t.Fatal(err)
				}
				h.SetCommandLatency(cmdRunCell, 10*time.Millisecond)
			}
		},
	},
}

// TestClusterDeterminismUnderFaultSchedules re-runs the builtin
// cell-based experiment matrix in cluster mode under every fault
// schedule: the faults reshape placement (failovers, probation,
// speculation, deadlines) but must never reach the stored bytes.
func TestClusterDeterminismUnderFaultSchedules(t *testing.T) {
	for _, tc := range determinismExperiments {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serialCfg := tc.cfg
			serialCfg.Jobs = 1
			wantLog, wantCSV := runOnce(t, serialCfg, tc.installs)

			for _, fs := range faultSchedules {
				cfg := tc.cfg
				cfg.Hosts = []string{"w1", "w2", "w3"}
				fs.set(&cfg)

				fx, cluster := clusterFex(t, "w1", "w2", "w3")
				installAll(t, fx, tc.installs...)
				fs.inject(t, cluster)
				report, err := fx.Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, fs.name, err)
				}
				compareToSerial(t, fx, report, wantLog, wantCSV, tc.name+"/"+fs.name)
			}
		})
	}
}

// TestClusterHostTimeoutBoundsHungRun proves the per-cell deadline on the
// modeled clock: with one hung host and -host-timeout, the run completes
// after exactly timeout + one failover — no real-time sleeping, no
// unbounded stall. The virtual clock only ever advances by the timeout,
// so completion at that instant is the bound.
func TestClusterHostTimeoutBoundsHungRun(t *testing.T) {
	const timeout = 40 * time.Millisecond
	cfg := Config{
		Experiment:  "cluster_hang",
		BuildTypes:  []string{"gcc_native"},
		Benchmarks:  []string{"fft"},
		Input:       workload.SizeTest,
		Verbose:     true,
		Hosts:       []string{"w2", "w1"},
		HostTimeout: timeout,
	}
	wantLog, wantCSV := serialReference(t, "cluster_hang", deterministicHooks(0), cfg)

	vclk := fexclock.NewVirtual(fixedNow())
	cluster := remote.NewCluster()
	for _, h := range []string{"w2", "w1"} {
		if _, err := cluster.Ensure(h); err != nil {
			t.Fatal(err)
		}
	}
	buf := &faultLog{}
	fx, err := New(Options{Now: fixedNow, Cluster: cluster, Clock: vclk, Verbose: buf})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cluster.Host("w2")
	if err != nil {
		t.Fatal(err)
	}
	hung := make(chan string, 4)
	w2.SetHang(hung)
	registerSchedExperiment(t, fx, "cluster_hang", deterministicHooks(0))

	type result struct {
		report *RunReport
		err    error
	}
	done := make(chan result, 1)
	go func() {
		report, err := fx.Run(context.Background(), cfg)
		done <- result{report, err}
	}()

	// The single cell lands on w2 (first idle host) and hangs at the
	// transport. Its deadline watchdog was armed on the virtual clock at
	// launch; advancing by exactly the timeout must fire it, fail the
	// cell over to w1, and complete the run with no further advance.
	<-hung
	vclk.Advance(timeout)
	res := <-done
	if res.err != nil {
		t.Fatalf("run with hung host failed: %v", res.err)
	}
	if elapsed := vclk.Now().Sub(fixedNow()); elapsed != timeout {
		t.Errorf("run completed at virtual +%v, want exactly the %v timeout", elapsed, timeout)
	}
	verbose := buf.String()
	if !strings.Contains(verbose, "host w2 timed out; failing over splash/fft [gcc_native]") {
		t.Errorf("missing deadline failover line in verbose log:\n%s", verbose)
	}
	if !strings.Contains(verbose, "host w2 entering probation") {
		t.Errorf("hung host did not enter probation:\n%s", verbose)
	}
	compareToSerial(t, fx, res.report, wantLog, wantCSV, "hung host")
}

// TestClusterFlappedHostReadmitted proves probation recovery: a host that
// flaps (down for one contact, then reachable again) is probed, re-admitted,
// and runs a subsequent cell; the verbose log records exactly one
// probation entry and one failover for the single outage, and the stored
// bytes stay byte-identical to serial.
func TestClusterFlappedHostReadmitted(t *testing.T) {
	hooks := deterministicHooks(0)
	baseRun := hooks.PerRunAction
	hooks.PerRunAction = func(rc *RunContext, buildType string, w workload.Workload, threads, rep int) (*measure.MetricVector, error) {
		// Keep w1 busy long enough that the re-admitted w2 is the only
		// idle host when the gated second build type's cell is released.
		if buildType == "gcc_native" {
			time.Sleep(50 * time.Millisecond)
		}
		return baseRun(rc, buildType, w, threads, rep)
	}
	cfg := Config{
		Experiment: "cluster_flap",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft"},
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w2", "w1"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_flap", hooks, cfg)

	fx, cluster := clusterFex(t, "w2", "w1")
	w2, err := cluster.Host("w2")
	if err != nil {
		t.Fatal(err)
	}
	w2.SetOutage(1) // down for exactly one contact: the first cell's dispatch
	buf := &faultLog{}
	fx.verbose = buf
	gated := hooks
	gated.PerTypeAction = func(rc *RunContext, buildType string) error {
		// Hold the second build type until the flapped host is back, so
		// its cell is provably placed after re-admission.
		if buildType == "clang_native" {
			return waitFor(buf, "host w2 recovered; re-admitted")
		}
		return nil
	}
	registerSchedExperiment(t, fx, "cluster_flap", gated)

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with flapping host failed: %v", err)
	}
	verbose := buf.String()
	if got := strings.Count(verbose, "host w2 entering probation"); got != 1 {
		t.Errorf("%d probation entries for one outage, want exactly 1:\n%s", got, verbose)
	}
	if got := strings.Count(verbose, "host w2 unreachable; failing over"); got != 1 {
		t.Errorf("%d failovers for one outage, want exactly 1:\n%s", got, verbose)
	}
	w2st := snap.find(t, "w2")
	if w2st.State != "healthy" {
		t.Errorf("flapped host state %q after recovery, want healthy", w2st.State)
	}
	if w2st.Cells < 1 {
		t.Errorf("re-admitted host ran %d cells, want at least 1", w2st.Cells)
	}
	if w2st.Probes < 1 {
		t.Errorf("re-admitted host recorded %d probes, want at least 1", w2st.Probes)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "flapping host")
}

// TestClusterUnreachableHostEvictedAfterProbes drives the probation
// backoff to exhaustion on the virtual clock: a host that stays dark is
// probed maxProbeFails times with exponential backoff and then evicted
// for the run, while the surviving host finishes the experiment.
func TestClusterUnreachableHostEvictedAfterProbes(t *testing.T) {
	cfg := Config{
		Experiment:  "cluster_evict",
		BuildTypes:  []string{"gcc_native", "clang_native"},
		Benchmarks:  []string{"fft"},
		Input:       workload.SizeTest,
		Verbose:     true,
		Hosts:       []string{"w2", "w1"},
		NoSpeculate: true, // keep the virtual-clock timer set to probes only
	}
	hooks := deterministicHooks(0)
	wantLog, wantCSV := serialReference(t, "cluster_evict", hooks, cfg)

	vclk := fexclock.NewVirtual(fixedNow())
	cluster := remote.NewCluster()
	for _, h := range []string{"w2", "w1"} {
		if _, err := cluster.Ensure(h); err != nil {
			t.Fatal(err)
		}
	}
	buf := &faultLog{}
	fx, err := New(Options{Now: fixedNow, Cluster: cluster, Clock: vclk, Verbose: buf})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cluster.Host("w2")
	if err != nil {
		t.Fatal(err)
	}
	w2.SetUnreachable(true)
	gated := hooks
	gated.PerTypeAction = func(rc *RunContext, buildType string) error {
		// Keep the run alive until the probe schedule ran to eviction.
		if buildType == "clang_native" {
			return waitFor(buf, "host w2 evicted after 5 failed probes")
		}
		return nil
	}
	registerSchedExperiment(t, fx, "cluster_evict", gated)

	// Pump the virtual clock: each backoff reprobe arms a timer; advancing
	// to the next pending deadline fires it. Idle spins just yield.
	stopPump := make(chan struct{})
	defer close(stopPump)
	go func() {
		for {
			select {
			case <-stopPump:
				return
			default:
			}
			if !vclk.AdvanceToNext() {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with permanently dark host failed: %v", err)
	}
	w2st := snap.find(t, "w2")
	if w2st.State != "evicted" {
		t.Errorf("dark host state %q, want evicted", w2st.State)
	}
	if w2st.Probes != 5 {
		t.Errorf("dark host probed %d times, want exactly %d", w2st.Probes, maxProbeFails)
	}
	w1st := snap.find(t, "w1")
	if w1st.Cells != 2 {
		t.Errorf("surviving host ran %d cells, want 2", w1st.Cells)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "probe eviction")
}

// TestClusterDegradeLocalWhenAllHostsDown proves graceful degradation:
// with every host unreachable and -degrade local, queued cells execute on
// the coordinator instead of failing the run, and the stored bytes stay
// byte-identical to serial.
func TestClusterDegradeLocalWhenAllHostsDown(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_degrade",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w1", "w2"},
		Degrade:    "local",
	}
	wantLog, wantCSV := serialReference(t, "cluster_degrade", deterministicHooks(0), cfg)

	fx, cluster := clusterFex(t, "w1", "w2")
	for _, name := range []string{"w1", "w2"} {
		h, err := cluster.Host(name)
		if err != nil {
			t.Fatal(err)
		}
		h.SetUnreachable(true)
	}
	buf := &faultLog{}
	fx.verbose = buf
	registerSchedExperiment(t, fx, "cluster_degrade", deterministicHooks(0))

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("degrade-local run failed: %v", err)
	}
	if want := 2 * 2; report.Measurements != want {
		t.Fatalf("%d measurements, want %d", report.Measurements, want)
	}
	if !strings.Contains(buf.String(), "locally (-degrade local)") {
		t.Errorf("verbose log does not record local degradation:\n%s", buf.String())
	}
	local := snap.find(t, "local")
	if local.Cells != 2 {
		t.Errorf("coordinator ran %d cells locally, want 2", local.Cells)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "degrade local")
}

// TestClusterProvisionFaultFailsOver asserts a worker that cannot
// provision (its container clone fails) is a host fault, not a run
// failure: the stranded cell fails over, the broken host is evicted, and
// the run completes on the surviving hosts with byte-identical output.
func TestClusterProvisionFaultFailsOver(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_provfault",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu"},
		Reps:       2,
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w2", "w1"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_provfault", deterministicHooks(0), cfg)

	fx, _ := clusterFex(t, "w2", "w1")
	fx.Container().SetCloneFault("worker-w2", errors.New("no space left on device"))
	buf := &faultLog{}
	fx.verbose = buf
	registerSchedExperiment(t, fx, "cluster_provfault", deterministicHooks(0))

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with provisioning fault failed: %v", err)
	}
	if want := 2 * 2; report.Measurements != want {
		t.Fatalf("%d measurements, want %d (shard loss?)", report.Measurements, want)
	}
	verbose := buf.String()
	if !strings.Contains(verbose, "host w2 failed provisioning; failing over") {
		t.Errorf("missing provisioning failover line:\n%s", verbose)
	}
	if !strings.Contains(verbose, "host w2 evicted:") {
		t.Errorf("broken host was not evicted:\n%s", verbose)
	}
	w2st := snap.find(t, "w2")
	if w2st.State != "evicted" || w2st.Cells != 0 {
		t.Errorf("broken host %+v, want evicted with 0 cells", w2st)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "provisioning fault")
}

// TestClusterSpeculationWinsStragglerRace injects heavy latency on one
// host: once the fast host drains the queue and the median is known, the
// straggling cell is speculatively duplicated, the duplicate wins, and
// the loser is cancelled — its shard discarded, never persisted.
func TestClusterSpeculationWinsStragglerRace(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_spec",
		BuildTypes: []string{"gcc_native"},
		Benchmarks: []string{"fft", "lu", "radix", "ocean"},
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w1", "w2"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_spec", deterministicHooks(0), cfg)

	fx, cluster := clusterFex(t, "w1", "w2")
	w1, err := cluster.Host("w1")
	if err != nil {
		t.Fatal(err)
	}
	// The first cell lands on w1 and crawls; w2 drains the other three,
	// establishing the median and going idle — the speculation premise.
	w1.SetCommandLatency(cmdRunCell, 2*time.Second)
	buf := &faultLog{}
	fx.verbose = buf
	registerSchedExperiment(t, fx, "cluster_spec", deterministicHooks(0))

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with straggling host failed: %v", err)
	}
	if report.Measurements != 4 {
		t.Fatalf("%d measurements, want 4", report.Measurements)
	}
	verbose := buf.String()
	if !strings.Contains(verbose, "speculating splash/fft [gcc_native] on w2 (straggling on w1)") {
		t.Errorf("straggler was not speculated:\n%s", verbose)
	}
	if !strings.Contains(verbose, "speculative copy of splash/fft [gcc_native] won on w2") {
		t.Errorf("speculative duplicate did not win:\n%s", verbose)
	}
	w2st := snap.find(t, "w2")
	if w2st.SpecWins != 1 {
		t.Errorf("fast host recorded %d speculative wins, want 1", w2st.SpecWins)
	}
	w1st := snap.find(t, "w1")
	if w1st.SpecLosses != 1 {
		t.Errorf("slow host recorded %d speculative losses, want 1", w1st.SpecLosses)
	}
	if w1st.State != "healthy" {
		t.Errorf("losing a speculation race must not penalize the host; state %q", w1st.State)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "speculation")
}

// TestClusterHostJoinsMidRun proves elastic growth: a host Ensure'd into
// the cluster while the run executes joins the scheduler and absorbs
// queued cells, with byte-identical stored output.
func TestClusterHostJoinsMidRun(t *testing.T) {
	cfg := Config{
		Experiment: "cluster_join",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Input:      workload.SizeTest,
		Verbose:    true,
		Hosts:      []string{"w1"},
	}
	hooks := deterministicHooks(0)
	wantLog, wantCSV := serialReference(t, "cluster_join", hooks, cfg)

	fx, cluster := clusterFex(t, "w1")
	buf := &faultLog{}
	fx.verbose = buf
	gated := hooks
	gated.PerTypeAction = func(rc *RunContext, buildType string) error {
		// Once the first type's cells are underway, a new host appears;
		// hold the second type until the scheduler admitted it, so its
		// cells are provably placed onto a mid-run join.
		if buildType == "clang_native" {
			if _, err := cluster.Ensure("w2"); err != nil {
				return err
			}
			return waitFor(buf, "host w2 joined mid-run")
		}
		return nil
	}
	registerSchedExperiment(t, fx, "cluster_join", gated)

	var snap hostsCapture
	report, err := fx.RunWithHooks(context.Background(), cfg, RunHooks{Progress: snap.hook})
	if err != nil {
		t.Fatalf("run with mid-run join failed: %v", err)
	}
	if got := strings.Count(buf.String(), "host w2 joined mid-run"); got != 1 {
		t.Errorf("join logged %d times, want exactly 1:\n%s", got, buf.String())
	}
	w2st := snap.find(t, "w2")
	if w2st.Cells < 1 {
		t.Errorf("joined host ran %d cells, want at least 1", w2st.Cells)
	}
	compareToSerial(t, fx, report, wantLog, wantCSV, "mid-run join")
}

// TestClusterChaosSeededFaults is the randomized fault-schedule suite
// behind `make chaos`: each round draws a random per-host fault plan
// (outage, latency, hang — one host always stays pristine so the run can
// complete) and a random speculation setting from a seeded source, runs
// the experiment on the cluster, and asserts the stored bytes still match
// the serial reference. FEX_CHAOS_SEED and FEX_CHAOS_ROUNDS pick the
// schedule; failures print the seed for replay.
func TestClusterChaosSeededFaults(t *testing.T) {
	seed := int64(20170626)
	if v := os.Getenv("FEX_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad FEX_CHAOS_SEED %q: %v", v, err)
		}
		seed = n
	}
	rounds := 2
	if v := os.Getenv("FEX_CHAOS_ROUNDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad FEX_CHAOS_ROUNDS %q", v)
		}
		rounds = n
	}
	t.Logf("chaos: seed %d, %d rounds (override with FEX_CHAOS_SEED / FEX_CHAOS_ROUNDS)", seed, rounds)

	cfg := Config{
		Experiment: "cluster_chaos",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu", "radix"},
		Reps:       2,
		Input:      workload.SizeTest,
		Hosts:      []string{"w1", "w2", "w3"},
	}
	wantLog, wantCSV := serialReference(t, "cluster_chaos", deterministicHooks(0), cfg)

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		fx, cluster := clusterFex(t, "w1", "w2", "w3")
		registerSchedExperiment(t, fx, "cluster_chaos", deterministicHooks(0))
		rcfg := cfg
		rcfg.NoSpeculate = rng.Intn(2) == 0
		// Hung hosts need the deadline to fail over; keep it generous so a
		// loaded machine never times out a legitimately-running cell.
		rcfg.HostTimeout = 500 * time.Millisecond
		var plan []string
		// w1 stays pristine: a cell that exhausts every faulted host must
		// always have one good host left, or the run legitimately fails.
		for _, name := range []string{"w2", "w3"} {
			h, err := cluster.Host(name)
			if err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(5) {
			case 0:
				plan = append(plan, name+":healthy")
			case 1:
				n := 1 + rng.Intn(3)
				h.SetOutage(n)
				plan = append(plan, fmt.Sprintf("%s:outage(%d)", name, n))
			case 2:
				d := time.Duration(1+rng.Intn(20)) * time.Millisecond
				h.SetCommandLatency(cmdRunCell, d)
				plan = append(plan, fmt.Sprintf("%s:latency(%v)", name, d))
			case 3:
				h.SetHang(nil)
				plan = append(plan, name+":hang")
			case 4:
				// Host-wide load skew: every operation is slow, but well
				// under the deadline, so the host never faults — it just
				// takes fewer cells from the shared queue.
				d := time.Duration(1+rng.Intn(5)) * time.Millisecond
				h.SetLatency(d)
				plan = append(plan, fmt.Sprintf("%s:load_skew(%v)", name, d))
			}
		}
		label := fmt.Sprintf("round %d [%s, no_speculate=%v]", round, strings.Join(plan, " "), rcfg.NoSpeculate)
		report, err := fx.Run(context.Background(), rcfg)
		if err != nil {
			t.Fatalf("chaos %s (seed %d): %v", label, seed, err)
		}
		compareToSerial(t, fx, report, wantLog, wantCSV, fmt.Sprintf("chaos %s (seed %d)", label, seed))
	}
}
