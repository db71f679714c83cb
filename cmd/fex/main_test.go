package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"fex/internal/clock"
	"fex/internal/diff"
	"fex/internal/remote"
)

func TestParseArgsRunFlags(t *testing.T) {
	args, err := parseArgs([]string{
		"run", "-n", "splash",
		"-t", "gcc_native", "clang_native",
		"-b", "fft", "lu",
		"-m", "1", "2", "4",
		"-r", "10",
		"-jobs", "4",
		"-i", "test",
		"-d", "-v", "--no-build",
		"-o", "/tmp/out",
		"--state", "/tmp/state",
	})
	if err != nil {
		t.Fatal(err)
	}
	if args.action != "run" || args.cfg.Experiment != "splash" {
		t.Errorf("action/name: %q/%q", args.action, args.cfg.Experiment)
	}
	if len(args.cfg.BuildTypes) != 2 || args.cfg.BuildTypes[1] != "clang_native" {
		t.Errorf("types %v", args.cfg.BuildTypes)
	}
	if len(args.cfg.Benchmarks) != 2 || len(args.cfg.Threads) != 3 || args.cfg.Threads[2] != 4 {
		t.Errorf("benches %v threads %v", args.cfg.Benchmarks, args.cfg.Threads)
	}
	if args.cfg.Reps != 10 || args.cfg.Input.String() != "test" {
		t.Errorf("reps/input: %d/%q", args.cfg.Reps, args.cfg.Input.String())
	}
	if args.cfg.Jobs != 4 {
		t.Errorf("jobs: %d, want 4", args.cfg.Jobs)
	}
	if !args.cfg.Debug || !args.cfg.Verbose || !args.cfg.NoBuild {
		t.Error("boolean flags not parsed")
	}
	if args.outDir != "/tmp/out" || args.stateFile != "/tmp/state" {
		t.Errorf("paths: %q %q", args.outDir, args.stateFile)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{},                         // no action
		{"run", "-n"},              // -n without value
		{"run", "-t"},              // -t without values
		{"run", "-r", "notanum"},   // bad -r
		{"run", "-m", "x"},         // bad -m
		{"run", "-jobs"},           // -jobs without value
		{"run", "-jobs", "zero"},   // bad -jobs
		{"run", "-jobs", "0"},      // -jobs below 1
		{"run", "--bogus"},         // unknown flag
		{"run", "-no-steal"},       // removed cluster switch
		{"run", "--no-load-aware"}, // removed cluster switch
		{"run", "-o"},              // -o without value
		{"run", "-cpuprofile"},     // -cpuprofile without path
		{"run", "-memprofile"},     // -memprofile without path
	}
	for _, argv := range cases {
		if _, err := parseArgs(argv); err == nil {
			t.Errorf("parseArgs(%v): expected error", argv)
		}
	}
}

// TestParseArgsResumeAndAdaptiveReps pins -resume and the end of
// adaptive repetitions: -r takes a repetition count, and every form of
// the removed -r auto is rejected, as is --modeled-time.
func TestParseArgsResumeAndAdaptiveReps(t *testing.T) {
	args, err := parseArgs([]string{"run", "-n", "micro", "-t", "gcc_native", "-r", "5", "-resume"})
	if err != nil {
		t.Fatal(err)
	}
	if args.cfg.Reps != 5 || !args.cfg.Resume {
		t.Errorf("reps=%d resume=%t", args.cfg.Reps, args.cfg.Resume)
	}
	for _, argv := range [][]string{
		{"run", "-n", "micro", "-r", "auto"},
		{"run", "-n", "micro", "-r", "auto:0.99,0.02"},
		{"run", "-n", "micro", "--modeled-time"},
	} {
		if _, err := parseArgs(argv); err == nil {
			t.Errorf("parseArgs(%v): expected error", argv)
		}
	}
}

func TestParseArgsMemoAndProfileFlags(t *testing.T) {
	args, err := parseArgs([]string{
		"run", "-n", "splash",
		"-no-memo",
		"-cpuprofile", "/tmp/cpu.pprof",
		"-memprofile", "/tmp/mem.pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !args.cfg.NoMemo {
		t.Error("-no-memo not parsed")
	}
	if args.cpuProfile != "/tmp/cpu.pprof" || args.memProfile != "/tmp/mem.pprof" {
		t.Errorf("profiles: %q %q", args.cpuProfile, args.memProfile)
	}
	// The GNU-style spelling is accepted too, matching --no-build.
	args, err = parseArgs([]string{"run", "-n", "splash", "--no-memo"})
	if err != nil {
		t.Fatal(err)
	}
	if !args.cfg.NoMemo {
		t.Error("--no-memo not parsed")
	}
}

// TestCLIProfileRun drives a real run with both profile flags and checks
// the pprof files materialize on the host.
func TestCLIProfileRun(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{
		"run", "-n", "micro", "-t", "gcc_native", "-b", "array_read",
		"-i", "test", "-r", "4",
		"-cpuprofile", cpu, "-memprofile", mem,
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCLIResumeRoundtripWithState is the CLI half of the resumable-run
// story: the result store rides in the --state file, so a second
// invocation with -resume replays the first invocation's cells and exports
// a byte-identical CSV and log.
func TestCLIResumeRoundtripWithState(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")
	coldDir, warmDir := filepath.Join(dir, "cold"), filepath.Join(dir, "warm")
	base := []string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-b", "array_read", "branch_heavy",
		"-i", "test", "-r", "2",
		"--state", state,
	}
	if err := run(append(append([]string{}, base...), "-o", coldDir)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-resume", "-o", warmDir)); err != nil {
		t.Fatal(err)
	}
	// The CLI stamps real invocation times into the log header; mask that
	// one field — everything else, including every measurement byte, must
	// match (the in-process determinism suite proves full byte identity
	// under an injected clock).
	maskStarted := regexp.MustCompile(`started=[^|\n]*`)
	for _, name := range []string{"micro.csv", "micro.log"} {
		cold, err := os.ReadFile(filepath.Join(coldDir, name))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(filepath.Join(warmDir, name))
		if err != nil {
			t.Fatal(err)
		}
		c := maskStarted.ReplaceAllString(string(cold), "started=T")
		w := maskStarted.ReplaceAllString(string(warm), "started=T")
		if c != w {
			t.Errorf("%s differs between cold and warm -resume run:\n--- cold ---\n%s\n--- warm ---\n%s", name, cold, warm)
		}
	}

	// fex clean empties the store in the state file; the run after it
	// still works (measures cold again).
	if err := run([]string{"clean", "--state", state}); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-resume")); err != nil {
		t.Fatalf("resume after clean: %v", err)
	}
}

// TestCLICompactRoundtripWithState drives `fex compact` through the CLI:
// a compacted store, written back into the --state file, must replay
// exactly like the store before it — a -resume run after compaction
// exports byte-identical results.
func TestCLICompactRoundtripWithState(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")
	coldDir, warmDir := filepath.Join(dir, "cold"), filepath.Join(dir, "warm")
	base := []string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-b", "array_read", "branch_heavy",
		"-i", "test", "-r", "2",
		"--state", state,
	}
	if err := run(append(append([]string{}, base...), "-o", coldDir)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compact", "--state", state}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := run(append(append([]string{}, base...), "-resume", "-o", warmDir)); err != nil {
		t.Fatalf("resume after compact: %v", err)
	}
	maskStarted := regexp.MustCompile(`started=[^|\n]*`)
	for _, name := range []string{"micro.csv", "micro.log"} {
		cold, err := os.ReadFile(filepath.Join(coldDir, name))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(filepath.Join(warmDir, name))
		if err != nil {
			t.Fatal(err)
		}
		c := maskStarted.ReplaceAllString(string(cold), "started=T")
		w := maskStarted.ReplaceAllString(string(warm), "started=T")
		if c != w {
			t.Errorf("%s differs between cold run and -resume after compact:\n--- cold ---\n%s\n--- warm ---\n%s", name, cold, warm)
		}
	}
	// Compacting an already-compacted (or empty) store is harmless.
	if err := run([]string{"compact", "--state", state}); err != nil {
		t.Fatalf("second compact: %v", err)
	}
}

// TestCLIFailedRunStillSavesState pins the partial-run durability
// contract at the CLI layer: even when a run fails, the container state —
// and with it every result-store cell that completed before the failure —
// is persisted, so a retry with -resume measures only what is missing.
func TestCLIFailedRunStillSavesState(t *testing.T) {
	state := filepath.Join(t.TempDir(), "fex.state")
	err := run([]string{
		"run", "-n", "micro",
		"-t", "gcc_native",
		"-b", "no_such_benchmark",
		"--state", state,
	})
	if err == nil {
		t.Fatal("run with unknown benchmark succeeded")
	}
	if _, statErr := os.Stat(state); statErr != nil {
		t.Errorf("state file not saved after failed run: %v", statErr)
	}
}

func TestCLIListAction(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIUnknownAction(t *testing.T) {
	err := run([]string{"frobnicate"})
	if err == nil || !strings.Contains(err.Error(), "unknown action") {
		t.Errorf("got %v", err)
	}
}

func TestCLIInstallRunRoundtripWithState(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")

	// Invocation 1: install RIPE sources; state persisted.
	if err := run([]string{"install", "-n", "ripe", "--state", state}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file missing: %v", err)
	}

	// Invocation 2: a fresh process-equivalent run picks the install up
	// from the state file and executes the Table II experiment.
	if err := run([]string{
		"run", "-n", "ripe",
		"-t", "gcc_native", "clang_native",
		"--state", state,
		"-o", dir,
	}); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "ripe.csv"))
	if err != nil {
		t.Fatalf("exported csv missing: %v", err)
	}
	if !strings.Contains(string(csv), "gcc_native,64,786,850") {
		t.Errorf("Table II row missing from exported csv:\n%s", csv)
	}

	// Invocation 3: collect again from stored state.
	if err := run([]string{"collect", "-n", "ripe", "--state", state}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIRunMicroAndPlot(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")
	if err := run([]string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-b", "array_read",
		"-i", "test",
		"--state", state,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"plot", "-n", "micro", "-t", "perf", "-o", dir, "--state", state,
	}); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "micro_perf.svg"))
	if err != nil {
		t.Fatalf("plot file missing: %v", err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Error("plot is not SVG")
	}
}

func TestCLIAnalyze(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")
	if err := run([]string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-b", "array_read",
		"-i", "test", "-r", "3",
		"--state", state,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"analyze", "-n", "micro", "-t", "gcc_native", "gcc_asan", "--state", state,
	}); err != nil {
		t.Fatal(err)
	}
	// Wrong arity is rejected.
	if err := run([]string{"analyze", "-n", "micro", "-t", "gcc_native", "--state", state}); err == nil {
		t.Error("expected error for single -t value")
	}
}

func TestCLIPlotWithoutRunFails(t *testing.T) {
	if err := run([]string{"plot", "-n", "splash", "-t", "perf"}); err == nil {
		t.Error("expected error plotting without collected results")
	}
}

func TestCLIRunRequiresName(t *testing.T) {
	for _, action := range []string{"run", "install", "collect", "plot", "analyze"} {
		if err := run([]string{action}); err == nil {
			t.Errorf("%s without -n accepted", action)
		}
	}
}

func TestParseArgsClusterFlags(t *testing.T) {
	args, err := parseArgs([]string{
		"run", "-n", "splash",
		"-t", "gcc_native",
		"-hosts", "w1, w2,w3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(args.cfg.Hosts) != 3 || args.cfg.Hosts[0] != "w1" || args.cfg.Hosts[1] != "w2" || args.cfg.Hosts[2] != "w3" {
		t.Errorf("hosts %v", args.cfg.Hosts)
	}

	for _, argv := range [][]string{
		{"run", "-hosts"},           // missing value
		{"run", "-hosts", "w1,,w2"}, // empty host name
	} {
		if _, err := parseArgs(argv); err == nil {
			t.Errorf("parseArgs(%v): expected error", argv)
		}
	}
}

func TestParseArgsFaultToleranceFlags(t *testing.T) {
	args, err := parseArgs([]string{
		"run", "-n", "splash",
		"-t", "gcc_native",
		"-hosts", "w1,w2",
		"-hosts-file", "hosts.txt",
		"-host-timeout", "30s",
		"-no-speculate",
		"-degrade", "local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if args.hostsFile != "hosts.txt" {
		t.Errorf("hosts file %q, want hosts.txt", args.hostsFile)
	}
	if args.cfg.HostTimeout != 30*time.Second {
		t.Errorf("host timeout %v, want 30s", args.cfg.HostTimeout)
	}
	if !args.cfg.NoSpeculate {
		t.Error("-no-speculate not parsed")
	}
	if args.cfg.Degrade != "local" {
		t.Errorf("degrade %q, want local", args.cfg.Degrade)
	}
	// -speculate restores the default after -no-speculate (last wins).
	args, err = parseArgs([]string{"run", "-n", "splash", "-no-speculate", "-speculate"})
	if err != nil {
		t.Fatal(err)
	}
	if args.cfg.NoSpeculate {
		t.Error("-speculate did not reset -no-speculate")
	}

	for _, argv := range [][]string{
		{"run", "-host-timeout"},           // missing value
		{"run", "-host-timeout", "banana"}, // not a duration
		{"run", "-host-timeout", "-5s"},    // negative
		{"run", "-hosts-file"},             // missing value
		{"run", "-degrade"},                // missing value
	} {
		if _, err := parseArgs(argv); err == nil {
			t.Errorf("parseArgs(%v): expected error", argv)
		}
	}
}

func TestReadHostsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts.txt")
	if err := os.WriteFile(path, []byte("# workers\nw1\n\n  w2  \n#w3\nw4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := readHostsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 3 || hosts[0] != "w1" || hosts[1] != "w2" || hosts[2] != "w4" {
		t.Errorf("hosts %v, want [w1 w2 w4]", hosts)
	}
	if _, err := readHostsFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing hosts file did not error")
	}
	if got := mergeHosts([]string{"w1", "w2"}, []string{"w2", "w5"}); len(got) != 3 || got[2] != "w5" {
		t.Errorf("mergeHosts = %v, want [w1 w2 w5]", got)
	}
}

// TestPollHostsFileOnVirtualClock pins the poller to the run's clock: it
// must tick on the injected clock.Clock (not a wall-clock time.Ticker),
// so under a virtual clock nothing happens until the clock is advanced
// and each 2s advance triggers exactly one re-read of the hosts file.
func TestPollHostsFileOnVirtualClock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts.txt")
	if err := os.WriteFile(path, []byte("w1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vclk := clock.NewVirtual(time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC))
	cluster := remote.NewCluster()
	stop := pollHostsFileOn(vclk, cluster, path, io.Discard)
	defer stop()

	waitForHost := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := cluster.Host(name); err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("host %s never joined: cluster has %v", name, cluster.Hosts())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The poller's ticker registers on the virtual clock; until it is
	// advanced, the file is never read.
	vclk.BlockUntil(1)
	if _, err := cluster.Host("w1"); err == nil {
		t.Fatal("host registered before the virtual clock advanced")
	}
	vclk.Advance(2 * time.Second)
	waitForHost("w1")

	// A name appearing in the file mid-run joins on the next tick.
	if err := os.WriteFile(path, []byte("w1\nw2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vclk.BlockUntil(1)
	vclk.Advance(2 * time.Second)
	waitForHost("w2")

	// After stop, further advances tick nobody.
	stop()
	if err := os.WriteFile(path, []byte("w1\nw2\nw3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vclk.Advance(2 * time.Second)
	time.Sleep(10 * time.Millisecond)
	if _, err := cluster.Host("w3"); err == nil {
		t.Error("poller still registering hosts after stop")
	}
}

// TestEnsureHostsWarnsOnce pins the fix for the poller's log spam: a
// host name the cluster rejects used to be warned about on every 2s
// tick; now it is warned exactly once until it recovers.
func TestEnsureHostsWarnsOnce(t *testing.T) {
	cluster := remote.NewCluster()
	var buf bytes.Buffer
	warned := make(map[string]bool)
	for i := 0; i < 5; i++ {
		ensureHosts(cluster, []string{"", "w1"}, warned, &buf)
	}
	if got := strings.Count(buf.String(), `host ""`); got != 1 {
		t.Errorf("rejected host warned %d times over 5 ticks, want 1:\n%s", got, buf.String())
	}
	if _, err := cluster.Host("w1"); err != nil {
		t.Errorf("valid host not registered: %v", err)
	}
	// A warning re-arms once the host registers successfully, so a host
	// that breaks again is reported again.
	warned["w1"] = true
	ensureHosts(cluster, []string{"w1"}, warned, &buf)
	if warned["w1"] {
		t.Error("successful registration did not re-arm the warning")
	}
}

func TestParseArgsDiffGateFlags(t *testing.T) {
	args, err := parseArgs([]string{
		"diff", "/tmp/base", "/tmp/cand",
		"-metric", "cycles",
		"-alpha", "0.01",
		"-o", "/tmp/out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(args.positional) != 2 || args.positional[0] != "/tmp/base" || args.positional[1] != "/tmp/cand" {
		t.Errorf("positional %v", args.positional)
	}
	if args.metric != "cycles" || args.alpha != 0.01 {
		t.Errorf("metric %q alpha %v", args.metric, args.alpha)
	}

	args, err = parseArgs([]string{
		"gate", "-baseline", "/tmp/base", "-max-regression", "5", "--higher-is-better",
	})
	if err != nil {
		t.Fatal(err)
	}
	if args.baseline != "/tmp/base" || args.maxRegress != 5 || !args.higherIsBet {
		t.Errorf("baseline %q maxRegress %v higher %v", args.baseline, args.maxRegress, args.higherIsBet)
	}

	for _, argv := range [][]string{
		{"diff", "-alpha"},                       // missing value
		{"diff", "-alpha", "2"},                  // out of range
		{"diff", "-alpha", "x"},                  // not a number
		{"gate", "-max-regression"},              // missing value
		{"gate", "-max-regression", "-3"},        // negative
		{"gate", "-baseline"},                    // missing value
		{"diff", "-metric"},                      // missing value
		{"diff", "only_one_path"},                // wrong arity (checked in run, parse ok) — see below
		{"gate"},                                 // no -baseline (checked in run) — see below
		{"export"},                               // no -o (checked in run) — see below
		{"diff", "/nonexistent", "/nonexistent"}, /* bad paths */
	} {
		argErr := func() error {
			a, err := parseArgs(argv)
			if err != nil {
				return err
			}
			_ = a
			return run(argv)
		}()
		if argErr == nil {
			t.Errorf("%v: expected error", argv)
		}
	}
}

// TestCLIDiffGateEndToEnd is the end-to-end proof of the cross-run
// analyzer: two runs of the same configuration — one serial, one through
// the -jobs tier — diff to zero significant deltas with byte-identical
// rendered output, `fex gate` passes against the exported baseline, and a
// planted regression makes it exit nonzero (and pass again once the
// threshold tolerates it).
func TestCLIDiffGateEndToEnd(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	dir := t.TempDir()
	serialState := filepath.Join(dir, "serial.state")
	jobsState := filepath.Join(dir, "jobs.state")
	base := []string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-b", "array_read", "branch_heavy",
		"-i", "test", "-r", "2",
	}
	if err := run(append(append([]string{}, base...), "--state", serialState)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-jobs", "4", "--state", jobsState)); err != nil {
		t.Fatal(err)
	}

	// Export both run sets; modeled time makes the records — and therefore
	// the run-set digests — identical across the serial and -jobs tiers.
	baseDir := filepath.Join(dir, "baseline")
	if err := run([]string{"export", "-o", baseDir, "--state", serialState}); err != nil {
		t.Fatal(err)
	}

	// Diff the baseline against each tier's state file into identically
	// named output dirs: every artifact must be byte-identical, and the
	// JSON must report no significant deltas.
	outputs := make(map[string][][]byte)
	for tier, state := range map[string]string{"serial": serialState, "jobs": jobsState} {
		out := filepath.Join(dir, "out_"+tier)
		// Same candidate label for both tiers so the provenance lines match.
		cand := filepath.Join(dir, "cand_"+tier, "cand.state")
		if err := os.MkdirAll(filepath.Dir(cand), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cand, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(filepath.Dir(cand)); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"diff", baseDir, "cand.state", "-o", out}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"fexdiff.csv", "fexdiff.json", "fexdiff.svg"} {
			b, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			outputs[name] = append(outputs[name], b)
		}
	}
	for name, pair := range outputs {
		if string(pair[0]) != string(pair[1]) {
			t.Errorf("%s differs between the serial and -jobs tiers:\n--- serial ---\n%s\n--- jobs ---\n%s", name, pair[0], pair[1])
		}
	}
	report, err := diff.DecodeReport(outputs["fexdiff.json"][0])
	if err != nil {
		t.Fatalf("exported report does not decode: %v", err)
	}
	if len(report.Deltas) != 4 {
		t.Errorf("deltas %d, want 4 (2 types x 2 benches)", len(report.Deltas))
	}
	if n := len(report.Significant()); n != 0 {
		t.Errorf("same-config diff reported %d significant deltas", n)
	}
	if len(report.BaselineOnly)+len(report.CandidateOnly) != 0 {
		t.Error("same-config diff reported unmatched cells")
	}

	// Gate against the committed-style baseline: passes.
	if err := run([]string{"gate", "-baseline", baseDir, "--state", serialState}); err != nil {
		t.Fatalf("gate on identical runs failed: %v", err)
	}

	// Plant a regression: double every wall_ns sample in a copy of the
	// candidate run set, then gate must exit nonzero...
	slowDir := filepath.Join(dir, "slow")
	plantRegression(t, baseDir, slowDir, 2.0)
	err = run([]string{"gate", "-baseline", baseDir, slowDir})
	if err == nil || !strings.Contains(err.Error(), "gate failed") {
		t.Fatalf("gate on planted regression: %v", err)
	}
	// ...unless the threshold tolerates a 2x slowdown.
	if err := run([]string{"gate", "-baseline", baseDir, slowDir, "-max-regression", "150"}); err != nil {
		t.Errorf("tolerant gate failed: %v", err)
	}
	// The planted slowdown is an IMPROVEMENT when the baseline and
	// candidate swap sides — direction matters.
	if err := run([]string{"gate", "-baseline", slowDir, baseDir}); err != nil {
		t.Errorf("gate treated an improvement as a regression: %v", err)
	}
}

// TestCLIRejectsStrayPositionalArgs pins that bare tokens are only valid
// for diff/gate (run-set paths): a forgotten flag ("run -n micro
// gcc_native" without -t) must error, not silently measure the default
// configuration.
func TestCLIRejectsStrayPositionalArgs(t *testing.T) {
	for _, argv := range [][]string{
		{"run", "-n", "micro", "gcc_native"},
		{"install", "-n", "ripe", "stray"},
		{"export", "stray", "-o", t.TempDir()},
		{"clean", "stray"},
	} {
		err := run(argv)
		if err == nil || !strings.Contains(err.Error(), "unexpected argument") {
			t.Errorf("%v: %v, want unexpected-argument error", argv, err)
		}
	}
}

// TestCLIGateRejectsEmptyCandidate pins that a gate whose --state file is
// missing or holds no cells fails loudly instead of passing vacuously
// (every baseline cell unmatched is only a warning, so a typo'd state
// path would otherwise green-light CI forever). An empty export is
// rejected for the same reason.
func TestCLIGateRejectsEmptyCandidate(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "fex.state")
	baseDir := filepath.Join(dir, "baseline")
	if err := run([]string{
		"run", "-n", "micro", "-t", "gcc_native", "-b", "array_read",
		"-i", "test", "-r", "2", "--state", state,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"export", "-o", baseDir, "--state", state}); err != nil {
		t.Fatal(err)
	}
	// Missing state file: the candidate store is empty.
	err := run([]string{"gate", "-baseline", baseDir, "--state", filepath.Join(dir, "nope.state")})
	if err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Errorf("gate with missing state: %v, want no-cells error", err)
	}
	// No --state at all: same.
	if err := run([]string{"gate", "-baseline", baseDir}); err == nil {
		t.Error("gate with no candidate store passed vacuously")
	}
	// diff against an empty state file fails the same way.
	empty := filepath.Join(dir, "empty.state")
	if err := run([]string{"install", "-n", "ripe", "--state", empty}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", baseDir, empty}); err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Errorf("diff with empty candidate store: %v", err)
	}
	// Exporting an empty store is always a mistake.
	if err := run([]string{"export", "-o", filepath.Join(dir, "out2")}); err == nil {
		t.Error("export of an empty store accepted")
	}
	// Re-exporting over an existing baseline is refused (stale records
	// would alias join keys and poison later diffs).
	err = run([]string{"export", "-o", baseDir, "--state", state})
	if err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Errorf("re-export over existing baseline: %v, want not-empty error", err)
	}
}

// TestCLIDiffDisjointRunSetsWithOutput pins the joinless edge: two valid
// run sets sharing no join keys (gating the wrong experiment) produce a
// warning-only verdict, and -o must still succeed — CSV and JSON record
// the unmatched cells, the chart is simply skipped — rather than turning
// the coverage warning into a bogus failure after printing "OK".
func TestCLIDiffDisjointRunSetsWithOutput(t *testing.T) {
	dir := t.TempDir()
	aState := filepath.Join(dir, "a.state")
	bState := filepath.Join(dir, "b.state")
	if err := run([]string{
		"run", "-n", "micro", "-t", "gcc_native", "-b", "array_read",
		"-i", "test", "-r", "2", "--state", aState,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"run", "-n", "micro", "-t", "gcc_asan", "-b", "branch_heavy",
		"-i", "test", "-r", "2", "--state", bState,
	}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if err := run([]string{"diff", aState, bState, "-o", out}); err != nil {
		t.Fatalf("joinless diff with -o failed: %v", err)
	}
	baseDir := filepath.Join(dir, "base")
	if err := run([]string{"export", "-o", baseDir, "--state", aState}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gate", "-baseline", baseDir, "--state", bState, "-o", filepath.Join(dir, "gateout")}); err != nil {
		t.Fatalf("joinless gate with -o failed: %v", err)
	}
	for _, name := range []string{"fexdiff.csv", "fexdiff.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "fexdiff.svg")); err == nil {
		t.Error("chart written for a report with zero deltas")
	}
	data, err := os.ReadFile(filepath.Join(out, "fexdiff.json"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := diff.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deltas) != 0 || len(report.BaselineOnly) != 1 || len(report.CandidateOnly) != 1 {
		t.Errorf("joinless report: %d deltas, %d base-only, %d cand-only",
			len(report.Deltas), len(report.BaselineOnly), len(report.CandidateOnly))
	}
}

// TestCLIGatePassesAA is the A/A check of the configuration that once
// failed it: two default runs into separate states must compare equal —
// fex gate passes at its defaults (alpha 0.05, -max-regression 0) and
// fex diff reports no significant delta on wall_ns, its default metric.
// When wall_ns was live harness time, half such pairs failed the gate.
func TestCLIGatePassesAA(t *testing.T) {
	dir := t.TempDir()
	states := []string{filepath.Join(dir, "a.state"), filepath.Join(dir, "b.state")}
	for _, state := range states {
		if err := run([]string{
			"run", "-n", "splash", "-t", "gcc_native", "clang_native",
			"-i", "test", "-r", "5", "--state", state,
		}); err != nil {
			t.Fatal(err)
		}
	}
	baseDir := filepath.Join(dir, "baseline")
	if err := run([]string{"export", "-o", baseDir, "--state", states[0]}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"gate", "-baseline", baseDir, "--state", states[1]}); err != nil {
		t.Errorf("A/A gate failed: %v", err)
	}
	out := filepath.Join(dir, "out")
	if err := run([]string{"diff", states[0], states[1], "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "fexdiff.json"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := diff.DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deltas) != 24 {
		t.Errorf("deltas %d, want 24 (2 types x 12 benchmarks)", len(report.Deltas))
	}
	if n := len(report.Significant()); n != 0 {
		t.Errorf("A/A diff reported %d significant deltas", n)
	}
}

// plantRegression copies a run-set directory, scaling every wall_ns
// sample by factor.
func plantRegression(t *testing.T, srcDir, dstDir string, factor float64) {
	t.Helper()
	rs, err := diff.LoadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	wallRe := regexp.MustCompile(`wall_ns=([0-9.e+\-]+)`)
	for i := range rs.Cells {
		rs.Cells[i].Payload = wallRe.ReplaceAllFunc(rs.Cells[i].Payload, func(m []byte) []byte {
			v, err := strconv.ParseFloat(string(m[len("wall_ns="):]), 64)
			if err != nil {
				t.Fatal(err)
			}
			return []byte("wall_ns=" + strconv.FormatFloat(v*factor, 'g', -1, 64))
		})
	}
	if err := diff.WriteDir(rs, dstDir); err != nil {
		t.Fatal(err)
	}
}

func TestCLIClusterRunMatchesSerialCSV(t *testing.T) {
	serialDir, clusterDir := t.TempDir(), t.TempDir()
	if err := run([]string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-i", "test", "-r", "2",
		"-o", serialDir,
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"run", "-n", "micro",
		"-t", "gcc_native", "gcc_asan",
		"-i", "test", "-r", "2",
		"-hosts", "w1,w2",
		"-o", clusterDir,
	}); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(filepath.Join(serialDir, "micro.csv"))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := os.ReadFile(filepath.Join(clusterDir, "micro.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(cluster) {
		t.Errorf("cluster CSV differs from serial CSV:\n--- serial ---\n%s\n--- cluster ---\n%s", serial, cluster)
	}
	if len(serial) == 0 {
		t.Error("empty CSV")
	}
}

// TestWriteFileAtomicKeepsOldStateOnFailure pins the crash-safety of
// state saves: a save that writes half its bytes and then fails leaves
// the previous file byte-for-byte intact and no temporary file behind.
func TestWriteFileAtomicKeepsOldStateOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fex.state")
	old := []byte("previous state: every stored result")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	errCut := errors.New("save cut short")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("new state, first ha")); err != nil {
			return err
		}
		return errCut
	})
	if !errors.Is(err, errCut) {
		t.Fatalf("failed save returned %v, want %v", err, errCut)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("failed save changed the state file: %q, want %q", got, old)
	}
	assertOnlyFile(t, dir, "fex.state")

	// A successful save replaces the bytes and keeps the permissions.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new state"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new state" {
		t.Errorf("saved state %q (%v), want %q", got, err, "new state")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("saved state mode %v, want 0600", fi.Mode().Perm())
	}
	assertOnlyFile(t, dir, "fex.state")
}

func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only %s", names, name)
	}
}
