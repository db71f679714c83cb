// Command fex is the framework's command-line entry point, mirroring the
// paper's fex.py:
//
//	fex <action> -n <name> [other arguments]
//
// Actions:
//
//	install  -n <artifact>                 run the setup stage for one artifact
//	run      -n <experiment> -t <types...> build, run, and collect an experiment
//	collect  -n <experiment>               re-run the collect stage from the stored log
//	plot     -n <experiment> -t <kind>     render a plot from collected results
//	diff     <baseline> <candidate>        cross-run differential analysis of two stored run sets
//	gate     -baseline <dir> [candidate]   CI gate: exit nonzero on a significant regression
//	export   -o <dir>                      write the result store as a committable run-set directory
//	clean                                  evict the persistent result store
//	compact                                garbage-collect stale cells from the result store
//	serve    [-addr host:port]             run the experiment service (HTTP/JSON API)
//	list                                   print the supported-experiments inventory (Table I)
//
// Run flags are not parsed here. The run surface of §III-B (-t build
// types, -b benchmark filter, -m thread counts, -r repetitions, -i input
// class, -d debug builds, -v verbose, --no-build) and everything added
// since (-tool, -jobs, -hosts, -host-timeout, the scheduler ablations,
// -degrade, -no-memo, -no-dedup, -resume) live in one flag table in
// internal/core (args.go): core.ParseArgs reads them into a core.Config,
// core.Config.Args and String render a run back, and fex serve decodes
// {"args": [...]} submissions through the same table. Each flag's
// meaning is documented on its core.Config field. Outside run, -n
// names the artifact or experiment, -t the plot kind or the two analyze
// types, and -b the analyze metric.
//
// The CLI's own flags: -o host output directory, --state state file
// (container persistence between invocations), -addr the serve listen
// address, -hosts-file a file of host names (one per line; re-read while
// the run executes, so new names join the cluster mid-run), and
// -cpuprofile/-memprofile pprof profiles of the invocation.
//
// Cross-run analysis flags: -baseline names the stored baseline run set
// for gate, -metric picks the compared per-repetition metric (default
// wall_ns), -alpha the significance level (default 0.05),
// -max-regression the tolerated regression percentage before gate fails
// (default 0: any significant regression fails), --higher-is-better flips
// the regression direction for rate-like metrics. Run sets are
// directories written by `fex export` (committable to a repository) or
// --state files from previous invocations.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fex/internal/clock"
	"fex/internal/core"
	"fex/internal/diff"
	"fex/internal/remote"
	"fex/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fex:", err)
		os.Exit(1)
	}
}

// cliArgs holds parsed command-line arguments: the run flags, read into
// cfg through core's flag table, and the CLI's own flags.
type cliArgs struct {
	action      string
	positional  []string
	cfg         core.Config
	hostsFile   string
	addr        string
	outDir      string
	stateFile   string
	cpuProfile  string
	memProfile  string
	baseline    string
	metric      string
	alpha       float64
	maxRegress  float64
	higherIsBet bool
}

func parseArgs(argv []string) (cliArgs, error) {
	if len(argv) == 0 {
		return cliArgs{}, errors.New("usage: fex <install|run|collect|plot|analyze|diff|gate|export|clean|compact|serve|list> -n <name> [args]")
	}
	args := cliArgs{action: argv[0]}
	cfg, rest, err := core.ParseArgs(argv[1:])
	args.cfg = cfg
	if err != nil {
		return args, err
	}
	paths := map[string]*string{
		"-o": &args.outDir, "--state": &args.stateFile, "-addr": &args.addr,
		"-hosts-file": &args.hostsFile, "-cpuprofile": &args.cpuProfile,
		"-memprofile": &args.memProfile, "-baseline": &args.baseline, "-metric": &args.metric,
	}
	for i := 0; i < len(rest); i++ {
		flag := rest[i]
		// Bare tokens between flags are positional arguments — the run-set
		// paths of "fex diff <baseline> <candidate>".
		if !strings.HasPrefix(flag, "-") {
			args.positional = append(args.positional, flag)
			continue
		}
		if flag == "-higher-is-better" || flag == "--higher-is-better" {
			args.higherIsBet = true
			continue
		}
		dst, known := paths[flag]
		if !known && flag != "-alpha" && flag != "-max-regression" {
			return args, fmt.Errorf("unknown flag %q", flag)
		}
		if i+1 == len(rest) || strings.HasPrefix(rest[i+1], "-") {
			return args, fmt.Errorf("%s requires a value", flag)
		}
		i++
		v := rest[i]
		switch flag {
		case "-alpha":
			a, err := strconv.ParseFloat(v, 64)
			if err != nil || a <= 0 || a >= 1 {
				return args, fmt.Errorf("bad -alpha value %q (want a number in (0,1))", v)
			}
			args.alpha = a
		case "-max-regression":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 {
				return args, fmt.Errorf("bad -max-regression value %q (want a percentage >= 0)", v)
			}
			args.maxRegress = p
		default:
			*dst = v
		}
	}
	return args, nil
}

func run(argv []string) error {
	args, err := parseArgs(argv)
	if err != nil {
		return err
	}
	// Only diff and gate take positional arguments (run-set paths); a bare
	// token anywhere else is a mistake (e.g. a build type without -t) and
	// must not be silently ignored.
	switch args.action {
	case "diff", "gate":
	default:
		if len(args.positional) > 0 {
			return fmt.Errorf("unexpected argument %q (did you forget a flag?)", args.positional[0])
		}
	}

	// Profiling hooks for perf work on real experiment runs: -cpuprofile
	// wraps the whole action, -memprofile snapshots the heap after it.
	if args.cpuProfile != "" {
		f, err := os.Create(args.cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if args.memProfile != "" {
		defer func() {
			f, err := os.Create(args.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fex: create mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fex: write mem profile:", err)
			}
		}()
	}

	var verbose *os.File
	if args.cfg.Verbose {
		verbose = os.Stderr
	}
	fx, err := core.New(core.Options{Verbose: verbose})
	if err != nil {
		return err
	}
	if args.stateFile != "" {
		if f, err := os.Open(args.stateFile); err == nil {
			loadErr := fx.LoadState(f)
			_ = f.Close()
			if loadErr != nil {
				return fmt.Errorf("load state %s: %w", args.stateFile, loadErr)
			}
		}
	}
	saveState := func() error {
		if args.stateFile == "" {
			return nil
		}
		if err := writeFileAtomic(args.stateFile, fx.SaveState); err != nil {
			return fmt.Errorf("save state %s: %w", args.stateFile, err)
		}
		return nil
	}

	switch args.action {
	case "install":
		if args.cfg.Experiment == "" {
			return errors.New("install requires -n <artifact>")
		}
		names, err := fx.Install(args.cfg.Experiment)
		if err != nil {
			return err
		}
		fmt.Printf("installed: %s\n", strings.Join(names, ", "))
		return saveState()

	case "run":
		if args.cfg.Experiment == "" {
			return errors.New("run requires -n <experiment>")
		}
		// -hosts-file seeds (and can extend mid-run) the cluster host pool:
		// hosts listed at start merge with -hosts; names appearing in the
		// file while the run executes are Ensure'd into the cluster and
		// join the scheduler, absorbing queued cells.
		if args.hostsFile != "" {
			fromFile, err := readHostsFile(args.hostsFile)
			if err != nil {
				return err
			}
			args.cfg.Hosts = mergeHosts(args.cfg.Hosts, fromFile)
		}
		cfg, _, err := fx.ResolveConfig(args.cfg)
		if err != nil {
			return err
		}
		// Convenience: the CLI installs compiler prerequisites implicitly;
		// scripted setups call `fex install` explicitly first.
		if err := fx.InstallPrerequisites(cfg.BuildTypes...); err != nil {
			return err
		}
		stopPoll := pollHostsFile(fx, args.hostsFile)
		report, err := fx.Run(context.Background(), cfg)
		stopPoll()
		if err != nil {
			// The result store already holds every cell that completed
			// before the failure; persist the state anyway so a retry with
			// -resume measures only what is missing.
			if saveErr := saveState(); saveErr != nil {
				return errors.Join(err, saveErr)
			}
			return err
		}
		fmt.Printf("experiment %s: %d measurements\n", report.Experiment, report.Measurements)
		fmt.Print(report.Table.String())
		if args.outDir != "" {
			if err := exportFile(fx, report.CSVPath, args.outDir); err != nil {
				return err
			}
			if err := exportFile(fx, report.LogPath, args.outDir); err != nil {
				return err
			}
		}
		return saveState()

	case "collect":
		if args.cfg.Experiment == "" {
			return errors.New("collect requires -n <experiment>")
		}
		tbl, err := fx.Collect(args.cfg.Experiment)
		if err != nil {
			return err
		}
		fmt.Print(tbl.String())
		return saveState()

	case "plot":
		name := args.cfg.Experiment
		if name == "" {
			return errors.New("plot requires -n <experiment>")
		}
		kind := ""
		if len(args.cfg.BuildTypes) > 0 {
			kind = args.cfg.BuildTypes[0]
		}
		svg, err := fx.Plot(name, kind)
		if err != nil {
			return err
		}
		outDir := args.outDir
		if outDir == "" {
			outDir = "."
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("write plot: %w", err)
		}
		out := filepath.Join(outDir, name+"_"+orDefault(kind, "default")+".svg")
		if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
			return fmt.Errorf("write plot: %w", err)
		}
		fmt.Printf("wrote %s\n", out)
		return saveState()

	case "analyze":
		// fex analyze -n <experiment> -t <typeA> <typeB> [-b metric]
		types := args.cfg.BuildTypes
		if args.cfg.Experiment == "" {
			return errors.New("analyze requires -n <experiment>")
		}
		if len(types) != 2 {
			return errors.New("analyze requires -t <typeA> <typeB>")
		}
		metric := ""
		if len(args.cfg.Benchmarks) == 1 {
			metric = args.cfg.Benchmarks[0]
		}
		report, err := fx.Analyze(args.cfg.Experiment, metric, types[0], types[1])
		if err != nil {
			return err
		}
		fmt.Print(report.String())
		return nil

	case "diff":
		// fex diff <baseline> <candidate> [-metric m] [-alpha a] [-o dir]:
		// cross-run differential analysis of two stored run sets (each a
		// record directory from `fex export` or a --state file).
		if len(args.positional) != 2 {
			return errors.New("diff requires two run-set paths: fex diff <baselineDir> <candidateDir>")
		}
		report, err := compareRunSets(args.positional[0], args.positional[1], args)
		if err != nil {
			return err
		}
		text, err := report.AppendText(nil)
		if err != nil {
			return err
		}
		os.Stdout.Write(text)
		if args.outDir != "" {
			if err := writeDiffArtifacts(report, args.outDir); err != nil {
				return err
			}
		}
		return nil

	case "gate":
		// fex gate -baseline <dir> [candidate] [-max-regression pct]
		// [-alpha a] [--state file]: fail (exit nonzero) when the candidate
		// — a positional run-set path, or the current store from --state —
		// has a significant regression above the threshold.
		if args.baseline == "" {
			return errors.New("gate requires -baseline <dir|state-file>")
		}
		if len(args.positional) > 1 {
			return errors.New("gate takes at most one candidate run-set path")
		}
		candidate := ""
		if len(args.positional) == 1 {
			candidate = args.positional[0]
		}
		var report *diff.Report
		if candidate != "" {
			report, err = compareRunSets(args.baseline, candidate, args)
		} else {
			base, lerr := loadRunSet(args.baseline)
			if lerr != nil {
				return lerr
			}
			cand, lerr := diff.FromStore(fx.ResultStore(), orDefault(args.stateFile, "store"))
			if lerr != nil {
				return lerr
			}
			// An empty candidate store would "pass" vacuously (every
			// baseline cell unmatched is only a warning) — a typo'd --state
			// path must fail the gate, not green-light CI forever.
			if lerr := requireCells(cand); lerr != nil {
				return lerr
			}
			report, err = diff.Compare(base, cand, diffOptions(args))
		}
		if err != nil {
			return err
		}
		result := report.Gate(args.maxRegress)
		fmt.Println(result.String())
		if args.outDir != "" {
			if err := writeDiffArtifacts(report, args.outDir); err != nil {
				return err
			}
		}
		if !result.OK() {
			return fmt.Errorf("gate failed: %d significant regressions above %g%%",
				len(result.Regressions), args.maxRegress)
		}
		return nil

	case "export":
		// fex export -o <dir> [--state file]: write the persistent result
		// store as a directory of record files — the committable baseline
		// format `fex diff` and `fex gate -baseline` read back.
		if args.outDir == "" {
			return errors.New("export requires -o <dir>")
		}
		rs, err := diff.FromStore(fx.ResultStore(), orDefault(args.stateFile, "store"))
		if err != nil {
			return err
		}
		if err := requireCells(rs); err != nil {
			return err
		}
		if err := diff.WriteDir(rs, args.outDir); err != nil {
			return err
		}
		fmt.Printf("exported %d cells to %s\n", len(rs.Cells), args.outDir)
		return nil

	case "clean":
		// fex clean [--state file]: evict the persistent result store so
		// the next -resume run measures everything cold.
		before, err := fx.ResultStore().Stats()
		if err != nil {
			return err
		}
		if err := fx.CleanStore(); err != nil {
			return err
		}
		fmt.Printf("store cleaned: evicted %d cells (%d bytes)\n", before.Records, before.Bytes)
		return saveState()

	case "compact":
		// fex compact [--state file]: drop stored cells no current run could
		// replay (their ConfigHash matches no mode combination under the
		// current cost-model calibration and metrics schema).
		stats, err := fx.CompactStore()
		if err != nil {
			return err
		}
		fmt.Printf("store compacted: kept %d cells, dropped %d stale, %d bytes reclaimed\n",
			stats.Kept, stats.Dropped, stats.Bytes)
		return saveState()

	case "serve":
		// fex serve [-addr host:port] [--state file]: run the experiment
		// service — an HTTP/JSON API accepting experiment configurations,
		// executing them through this framework instance, and exposing run
		// status, streaming logs, and artifacts. With --state, container
		// state is persisted after every settled run, so completed cells
		// survive a restart and later submissions replay them.
		return runServe(fx, args, saveState)

	case "list":
		fmt.Print(fx.BuildInventory().String())
		return nil

	default:
		return fmt.Errorf("unknown action %q (have install, run, collect, plot, analyze, diff, gate, export, clean, compact, serve, list)", args.action)
	}
}

// writeFileAtomic replaces path with the bytes write produces without
// ever exposing a truncated or half-written file: write fills a
// temporary file in the same directory, which is synced, closed and only
// then renamed over path. On any failure path keeps its old bytes and
// the temporary file is removed. An existing file's permissions carry
// over to the replacement.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	mode := os.FileMode(0o644)
	if fi, statErr := os.Stat(path); statErr == nil {
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already failed; a second Close error adds nothing
			_ = os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(mode); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// runServe hosts the experiment service until interrupted: it listens on
// -addr (default 127.0.0.1:8080), serves the HTTP API, and shuts down
// cleanly on SIGINT/SIGTERM — the in-flight run is cancelled, queued runs
// settle as cancelled, and state is saved one last time.
func runServe(fx *core.Fex, args cliArgs, saveState func() error) error {
	srv := serve.New(fx, serve.Options{
		OnRunFinished: func(id string, runErr error) {
			if err := saveState(); err != nil {
				fmt.Fprintf(os.Stderr, "fex: run %s: %v\n", id, err)
			}
		},
	})
	ln, err := net.Listen("tcp", orDefault(args.addr, "127.0.0.1:8080"))
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		_ = httpSrv.Shutdown(context.Background())
	}()
	fmt.Printf("fex serve listening on http://%s\n", ln.Addr())
	err = httpSrv.Serve(ln)
	srv.Close()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return errors.Join(err, saveState())
}

// diffOptions maps CLI flags onto the differential analyzer's options.
func diffOptions(args cliArgs) diff.Options {
	return diff.Options{
		Metric:         args.metric,
		Alpha:          args.alpha,
		HigherIsBetter: args.higherIsBet,
	}
}

// requireCells rejects an empty run set: every CLI comparison site wants
// a loud failure over a vacuous verdict.
func requireCells(rs *diff.RunSet) error {
	if len(rs.Cells) == 0 {
		return fmt.Errorf("run set %s holds no cells (was the experiment run with --state?)", rs.Source)
	}
	return nil
}

// loadRunSet loads a stored run set from a path: a directory of record
// files (from `fex export`) or a --state file from a previous invocation,
// whose embedded result store is read back through a fresh framework.
func loadRunSet(path string) (*diff.RunSet, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("run set %s: %w", path, err)
	}
	if st.IsDir() {
		return diff.LoadDir(path)
	}
	fx, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("run set %s: %w", path, err)
	}
	defer f.Close()
	if err := fx.LoadState(f); err != nil {
		return nil, fmt.Errorf("run set %s: %w", path, err)
	}
	rs, err := diff.FromStore(fx.ResultStore(), path)
	if err != nil {
		return nil, err
	}
	if err := requireCells(rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// compareRunSets loads and compares two run-set paths.
func compareRunSets(basePath, candPath string, args cliArgs) (*diff.Report, error) {
	base, err := loadRunSet(basePath)
	if err != nil {
		return nil, err
	}
	cand, err := loadRunSet(candPath)
	if err != nil {
		return nil, err
	}
	return diff.Compare(base, cand, diffOptions(args))
}

// writeDiffArtifacts writes the report's three renderings — CSV table,
// canonical JSON, speedup chart — into outDir as fexdiff.{csv,json,svg}.
func writeDiffArtifacts(report *diff.Report, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	csv, err := report.CSV()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "fexdiff.csv"), csv, 0o644); err != nil {
		return err
	}
	js, err := diff.EncodeReport(report)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "fexdiff.json"), js, 0o644); err != nil {
		return err
	}
	// A joinless comparison (disjoint run sets) has nothing to chart; the
	// CSV and JSON still record the unmatched cells, and a chartless
	// report must not turn a warning-only verdict into a failure.
	if len(report.Deltas) == 0 {
		return nil
	}
	svg, err := report.ChartSVG()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "fexdiff.svg"), []byte(svg), 0o644); err != nil {
		return err
	}
	return nil
}

// readHostsFile parses a hosts file: one host name per line, blank lines
// and #-comments ignored.
func readHostsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hosts file: %w", err)
	}
	var hosts []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		hosts = append(hosts, line)
	}
	return hosts, nil
}

// mergeHosts appends the extras not already present, preserving order.
func mergeHosts(hosts, extras []string) []string {
	seen := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		seen[h] = true
	}
	for _, h := range extras {
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// pollHostsFile watches the -hosts-file for new host names while a run
// executes, Ensure-ing each into the framework cluster so the scheduler
// admits it mid-run. Returns a stop function; a no-op when no hosts file
// was given.
func pollHostsFile(fx *core.Fex, path string) func() {
	return pollHostsFileOn(fx.Clock(), fx.Cluster(), path, os.Stderr)
}

// pollHostsFileOn is the poller itself, parameterized on its time source
// and cluster so tests drive it on a virtual clock without a framework
// instance. It ticks on the run's scheduler clock (not the wall clock).
// Read errors are ignored (the file may be mid-rewrite); known names are
// skipped by the scheduler. A host that fails to Ensure is warned about
// once, not once per tick — the warning re-arms only after the host
// succeeds (so a host that breaks again warns anew).
func pollHostsFileOn(clk clock.Clock, cluster *remote.Cluster, path string, warn io.Writer) func() {
	if path == "" {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		ticker := clock.NewTicker(clk, 2*time.Second)
		defer ticker.Stop()
		warned := make(map[string]bool)
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			hosts, err := readHostsFile(path)
			if err != nil {
				continue
			}
			ensureHosts(cluster, hosts, warned, warn)
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ensureHosts registers each name into the cluster. A name the cluster
// rejects is warned about once — not once per poll tick — and the
// warning re-arms only after that name registers successfully.
func ensureHosts(cluster *remote.Cluster, hosts []string, warned map[string]bool, warn io.Writer) {
	for _, h := range hosts {
		if _, err := cluster.Ensure(h); err != nil {
			if !warned[h] {
				warned[h] = true
				fmt.Fprintf(warn, "fex: hosts file: host %q: %v\n", h, err)
			}
		} else {
			delete(warned, h)
		}
	}
}

func exportFile(fx *core.Fex, containerPath, outDir string) error {
	data, err := fx.ReadResult(containerPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	out := filepath.Join(outDir, filepath.Base(containerPath))
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("export %s: %w", containerPath, err)
	}
	return nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
