package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fex/internal/buildsys"
	fexclock "fex/internal/clock"
	"fex/internal/container"
	"fex/internal/env"
	"fex/internal/installer"
	"fex/internal/measure"
	"fex/internal/remote"
	"fex/internal/runlog"
	"fex/internal/store"
	"fex/internal/table"
	"fex/internal/toolchain"
	"fex/internal/vfs"
	"fex/internal/workload"
	"fex/internal/workload/micro"
	"fex/internal/workload/parsec"
	"fex/internal/workload/phoenix"
	"fex/internal/workload/splash"
)

// Paths inside the experiment container.
const (
	// LogDir receives experiment run logs.
	LogDir = "/fex/logs"
	// ResultDir receives aggregated CSV tables.
	ResultDir = "/fex/results"
	// PlotDir receives rendered plots.
	PlotDir = "/fex/plots"
	// StoreDir holds the persistent result store: one content-addressed
	// record per experiment cell (see internal/store).
	StoreDir = "/fex/store"
	// RunsDir holds per-run artifact directories, one per run ID, so
	// concurrent and repeated runs of the same experiment never collide.
	// The legacy LogDir/ResultDir/PlotDir paths stay the "latest run" view.
	RunsDir = "/fex/runs"
)

// Options configures framework construction. Zero values select the
// shipped defaults.
type Options struct {
	// Registry provides the benchmark workloads; nil registers all
	// shipped suites (phoenix, splash, parsec, micro).
	Registry *workload.Registry
	// Repository serves setup-stage artifacts; nil uses the default
	// catalog.
	Repository *installer.Repository
	// Image is the container image to run experiments in; nil builds the
	// shipped base image.
	Image *container.Image
	// Verbose receives -v progress output; nil discards it.
	Verbose io.Writer
	// Now supplies timestamps (defaults to time.Now); injectable for
	// deterministic tests.
	Now func() time.Time
	// Clock drives the cluster scheduler's fault-tolerance timers —
	// probation reprobe backoff, per-cell deadlines, speculation
	// thresholds; nil selects the real clock. Tests inject a
	// clock.Virtual and advance it explicitly, so timing behaviour is
	// proven deterministically without sleeping real time.
	Clock fexclock.Clock
	// Cluster is the worker-host cluster experiment cells are dispatched
	// to when Config.Hosts is set; nil creates an empty cluster whose
	// hosts are registered on first use. Tests inject a pre-built cluster
	// to configure latency and reachability fault injection.
	Cluster *remote.Cluster
}

// Fex is the framework object behind one fex.py invocation (Figure 3):
// it owns the experiment container, the setup-stage installer, the build
// system, the workload and experiment registries, and the environment
// machinery.
type Fex struct {
	ctr         *container.Container
	inst        *installer.Installer
	repo        *installer.Repository
	build       *buildsys.System
	registry    *workload.Registry
	store       *store.Store
	calOnce     sync.Once
	calDigest   string
	experiments map[string]*Experiment
	providers   map[string]env.Provider
	cluster     *remote.Cluster
	verbose     io.Writer
	now         func() time.Time
	clock       fexclock.Clock
	// runSeq numbers the framework-assigned run IDs ("run-0001", …); it
	// only advances, LoadState raises it to the highest loaded "run-"
	// number, and nextRunID skips IDs whose directory exists (RunExists),
	// so every Run gets a distinct artifact directory under RunsDir and
	// never the ID of a run LoadState removed.
	runSeq atomic.Uint64
	// loadedHigh is the highest number of each run ID family the last
	// LoadState carried in (see LoadedRunHigh); historyMu guards it.
	historyMu  sync.Mutex
	loadedHigh map[string]uint64
	// clientSlot is a one-slot semaphore that gives throughput–latency
	// runs the load-generation client one session at a time (see
	// RunContext.holdClient): the loadgen command on clientHost and the
	// host's log buffer are shared by every run of the framework.
	// Calibration takes it too, so that no other server is measured at
	// the same time.
	clientSlot chan struct{}
	// buildMu serializes the pre-run build step; lastBuildHash is the
	// marker of the build identity whose CleanBuild the coordinator's
	// artifact cache currently reflects. A run whose marker matches
	// reuses the warm cache instead of rebuilding — one build per build
	// configuration serves every experiment of a multi-experiment
	// invocation (artifacts are a pure function of the identity).
	buildMu       sync.Mutex
	lastBuildHash string
	// baseMakefiles is the build system's makefile registry as
	// newBenchBuildSystem assembled it. Host build systems assemble the
	// same set themselves; every makefile added or replaced since is
	// part of a run's build identity and shipped to them.
	baseMakefiles map[string]*buildsys.Makefile
	// images holds each cluster host's provisioned image by host name
	// (see hostImage in cluster.go); provisions counts provisioning
	// attempts over the framework's lifetime.
	imageMu    sync.Mutex
	images     map[string]*hostImage
	provisions atomic.Int64
}

// New constructs a framework instance: it boots the container from the
// image, wires the installer and build system into it, registers the
// shipped suites, makefiles, environment providers, and experiments.
func New(opts Options) (*Fex, error) {
	reg := opts.Registry
	if reg == nil {
		reg = workload.NewRegistry()
		for _, register := range []func(*workload.Registry) error{
			phoenix.Register, splash.Register, parsec.Register, micro.Register,
		} {
			if err := register(reg); err != nil {
				return nil, fmt.Errorf("register suites: %w", err)
			}
		}
		if err := reg.RegisterAll(appWorkloads()...); err != nil {
			return nil, fmt.Errorf("register applications: %w", err)
		}
	}
	repo := opts.Repository
	if repo == nil {
		var err error
		repo, err = installer.DefaultRepository()
		if err != nil {
			return nil, fmt.Errorf("default repository: %w", err)
		}
	}
	img := opts.Image
	if img == nil {
		var err error
		img, err = container.BuildBaseImage(container.BaseImageConfig{})
		if err != nil {
			return nil, fmt.Errorf("base image: %w", err)
		}
	}
	ctr, err := container.Run(img)
	if err != nil {
		return nil, fmt.Errorf("start container: %w", err)
	}
	inst, err := installer.New(repo, ctr)
	if err != nil {
		return nil, err
	}
	fsys, err := ctr.FS()
	if err != nil {
		return nil, err
	}
	bld, err := newBenchBuildSystem(fsys, func(artifact string) (bool, error) {
		return inst.IsInstalled(artifact)
	}, reg)
	if err != nil {
		return nil, err
	}

	verbose := opts.Verbose
	if verbose == nil {
		verbose = io.Discard
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	cluster := opts.Cluster
	if cluster == nil {
		cluster = remote.NewCluster()
	}
	clk := opts.Clock
	if clk == nil {
		clk = fexclock.Real()
	}
	fx := &Fex{
		ctr:           ctr,
		inst:          inst,
		repo:          repo,
		build:         bld,
		baseMakefiles: bld.MakefileSet(),
		registry:      reg,
		store:         store.New(fsys, StoreDir),
		experiments:   make(map[string]*Experiment),
		cluster:       cluster,
		images:        make(map[string]*hostImage),
		clientSlot:    make(chan struct{}, 1),
		providers: map[string]env.Provider{
			"native": env.NativeProvider{},
			"asan":   env.ASanProvider{},
		},
		verbose: verbose,
		now:     now,
		clock:   clk,
	}
	if err := fx.registerBuiltinExperiments(); err != nil {
		return nil, err
	}
	return fx, nil
}

// newBenchBuildSystem assembles a benchmark build system over the given
// filesystem: shipped makefiles, generated per-benchmark makefiles, and
// the SPLASH-3 multi-file build descriptions (§IV-A's suite build-system
// integration). The coordinator and every cluster worker construct their
// build systems through this one path, so builds resolve identically on
// any host.
func newBenchBuildSystem(fsys *vfs.FS, installed buildsys.InstalledFunc, reg *workload.Registry) (*buildsys.System, error) {
	bld := buildsys.NewSystem(fsys, installed)
	if err := bld.InstallDefaults(); err != nil {
		return nil, err
	}
	if err := bld.RegisterBenchmarks(reg); err != nil {
		return nil, fmt.Errorf("register benchmark makefiles: %w", err)
	}
	splashFiles, err := splash.BuildFiles()
	if err != nil {
		return nil, err
	}
	for path, text := range splashFiles {
		if err := bld.AddMakefileText(path, buildsys.LayerApplication, text); err != nil {
			return nil, fmt.Errorf("splash build files: %w", err)
		}
	}
	return bld, nil
}

// Container exposes the experiment container (for tests and tooling).
func (fx *Fex) Container() *container.Container { return fx.ctr }

// BuildSystem exposes the build subsystem.
func (fx *Fex) BuildSystem() *buildsys.System { return fx.build }

// Registry exposes the workload registry.
func (fx *Fex) Registry() *workload.Registry { return fx.registry }

// Cluster exposes the worker-host cluster used by -hosts runs (for tests
// and tooling that pre-register hosts or inject faults).
func (fx *Fex) Cluster() *remote.Cluster { return fx.cluster }

// Clock exposes the scheduler clock (Options.Clock, or the real clock),
// so CLI plumbing like the hosts-file poller runs on the same time
// source as the run it feeds.
func (fx *Fex) Clock() fexclock.Clock { return fx.clock }

// ResultStore exposes the persistent result store -resume runs replay
// from. It lives in the container filesystem (StoreDir), so --state
// persistence carries it across CLI invocations.
func (fx *Fex) ResultStore() *store.Store { return fx.store }

// CleanStore evicts every stored cell — the "fex clean" action. Safe at
// any time: subsequent runs simply measure cold and refill the store.
func (fx *Fex) CleanStore() error {
	if fx.store == nil {
		return nil
	}
	return fx.store.Clean()
}

// CompactStore garbage-collects the result store — the "fex compact"
// action. Records whose ConfigHash no current run could produce are
// dropped: a cell's hash must match one of the two debug modes under the
// *current* calibration and metrics schema, so cells stranded by a
// calibration or schema change (or written under the removed live-time
// and -no-memo identities) — unreachable by any -resume lookup — stop
// occupying the store.
func (fx *Fex) CompactStore() (store.CompactStats, error) {
	if fx.store == nil {
		return store.CompactStats{}, nil
	}
	valid := map[string]bool{fx.costModelHash(false): true, fx.costModelHash(true): true}
	return fx.store.Compact(func(fp store.Fingerprint) bool {
		return valid[fp.ConfigHash]
	})
}

// buildIdentity is the build configuration of one run, computed once
// when it starts. The cell fingerprints (config is their ConfigHash,
// digest joins their Dims), the build marker and the host image key all
// derive from it. config is the cost-model hash; makefiles are those
// added or replaced since New, which host build systems do not assemble
// themselves, and digest is their buildsys.Digest ("" when none).
type buildIdentity struct {
	config, digest string
	makefiles      []*buildsys.Makefile
}

// newBuildIdentity returns the build identity of a run with cfg.
func (fx *Fex) newBuildIdentity(cfg Config) buildIdentity {
	shipped := fx.build.ChangedSince(fx.baseMakefiles)
	return buildIdentity{config: fx.costModelHash(cfg.Debug), digest: buildsys.Digest(shipped), makefiles: shipped}
}

// marker is the identity as one string: the build marker prepareBuild
// compares.
func (id buildIdentity) marker() string { return id.config + id.digest }

// costModelHash digests the measurement context that cell fingerprints
// cannot express structurally: the full cost-model calibration (baseline,
// per-compiler codegen, sanitizer and debug scales — every derived vector
// a build type can resolve to) and debug mode, the one config mode that
// changes what a repetition records. Any drift here must miss the store
// rather than replay measurements taken under a different model. The
// calibration rendering is constant for the process, so its digest is
// computed once; the per-call work is hashing a short fixed-size string
// (once per run, in newBuildIdentity, and once per debug mode in
// CompactStore).
func (fx *Fex) costModelHash(debug bool) string {
	fx.calOnce.Do(func() {
		sum := sha256.Sum256([]byte(toolchain.CalibrationCanonical()))
		fx.calDigest = hex.EncodeToString(sum[:])
	})
	h := sha256.New()
	fmt.Fprintf(h, "calibration:%s\n", fx.calDigest)
	// The metrics schema version invalidates stored cells when the tools'
	// metric sets change (e.g. the write_ratio fix) — replaying records
	// taken under an older schema would silently resurrect its metrics.
	fmt.Fprintf(h, "metrics-schema:%d\n", measure.MetricsSchemaVersion)
	// wall_ns is always modeled time and memoized runs record exactly
	// what unmemoized ones do, so neither the retired --modeled-time mode
	// nor -no-memo is part of the identity. Their bytes stay fixed at the
	// modeled, memoized values so records stored under that mode keep
	// their keys.
	fmt.Fprintf(h, "debug:%t\nmodeled-time:true\nno-memo:false\n", debug)
	return hex.EncodeToString(h.Sum(nil))
}

// Install runs the setup stage for one artifact ("fex install -n gcc-6.1"):
// it resolves and installs the artifact and its transitive dependencies
// into the container.
func (fx *Fex) Install(name string) ([]string, error) {
	names, err := fx.inst.Install(name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(fx.verbose, "installed: %s\n", strings.Join(names, ", "))
	return names, nil
}

// Installed reports whether an artifact is installed.
func (fx *Fex) Installed(name string) (bool, error) {
	return fx.inst.IsInstalled(name)
}

// InstallPrerequisites installs everything the given build types need —
// a convenience for examples and tests (users normally install each
// artifact explicitly, as in §III-B). It installs only what the install
// manifest lacks.
func (fx *Fex) InstallPrerequisites(buildTypes ...string) error {
	installed, err := fx.inst.Manifest()
	if err != nil {
		return err
	}
	// In artifact name order.
	for _, pre := range [...]struct{ prefix, artifact string }{{"clang_", "clang-3.8.0"}, {"gcc_", "gcc-6.1"}} {
		needed := slices.ContainsFunc(buildTypes, func(bt string) bool { return strings.HasPrefix(bt, pre.prefix) })
		if !needed || slices.ContainsFunc(installed, func(it installer.Installed) bool { return it.Name == pre.artifact }) {
			continue
		}
		if _, err := fx.Install(pre.artifact); err != nil {
			return err
		}
	}
	return nil
}

// Artifact builds (or fetches from the build cache) one benchmark binary.
func (fx *Fex) Artifact(w workload.Workload, buildType string, debug bool) (*toolchain.Artifact, error) {
	return fx.build.Build(w, buildType, debug)
}

// selectBenchmarks returns the suite's workloads, filtered by -b names.
// A name listed N times selects the workload N times (a duplicated
// sweep): the positions are real cells of the loop, and the planner
// measures the distinct fingerprint once and replays it into every
// duplicate position (unless -no-dedup).
func (fx *Fex) selectBenchmarks(suite string, filter []string) ([]workload.Workload, error) {
	ws, err := fx.registry.Suite(suite)
	if err != nil {
		return nil, err
	}
	if len(filter) == 0 {
		return ws, nil
	}
	want := make(map[string]int, len(filter))
	for _, f := range filter {
		want[f]++
	}
	var out []workload.Workload
	for _, w := range ws {
		for n := want[w.Name()]; n > 0; n-- {
			out = append(out, w)
		}
		delete(want, w.Name())
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("core: unknown benchmarks in suite %s: %s", suite, strings.Join(missing, ", "))
	}
	return out, nil
}

// environmentFor assembles the experiment environment: framework defaults
// overlaid with each requested build type's provider (§II-B). Providers
// matching the same build type merge in sorted key order — map iteration
// order must never decide which provider's value for an overlapping
// variable wins, or two runs of the same configuration could measure
// different environments.
func (fx *Fex) environmentFor(buildTypes []string) *env.Environment {
	e := env.New()
	_ = e.Set(env.Default, "FEX_ROOT", "/fex")
	_ = e.Set(env.Default, "LC_ALL", "C")
	_ = e.Set(env.Default, "BIN_PATH", "/usr/bin")
	_ = e.Set(env.Debug, "FEX_DEBUG", "1")
	keys := make([]string, 0, len(fx.providers))
	for key := range fx.providers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, bt := range buildTypes {
		for _, key := range keys {
			if strings.Contains(bt, key) && key != "native" {
				e.Merge(fx.providers[key].Variables())
			}
		}
	}
	return e
}

// RegisterEnvProvider adds a custom environment provider keyed by a build
// type substring (how users plug in new Environment subclasses).
func (fx *Fex) RegisterEnvProvider(key string, p env.Provider) error {
	if key == "" || p == nil {
		return errors.New("core: env provider requires key and provider")
	}
	fx.providers[key] = p
	return nil
}

// logPath returns the container path of an experiment's run log.
func logPath(experiment string) string { return filepath.Join(LogDir, experiment+".log") }

// csvPath returns the container path of an experiment's aggregated CSV.
func csvPath(experiment string) string { return filepath.Join(ResultDir, experiment+".csv") }

// plotPath returns the container path of a rendered plot.
func plotPath(experiment, kind string) string {
	return filepath.Join(PlotDir, experiment+"_"+kind+".svg")
}

// runDir returns the per-run artifact directory of one run ID.
func runDir(runID string) string { return filepath.Join(RunsDir, runID) }

// runLogPath returns the run-scoped container path of a run's log.
func runLogPath(runID, experiment string) string {
	return filepath.Join(runDir(runID), experiment+".log")
}

// runCSVPath returns the run-scoped container path of a run's CSV.
func runCSVPath(runID, experiment string) string {
	return filepath.Join(runDir(runID), experiment+".csv")
}

// RunExists reports whether runID already has an artifact directory under
// RunsDir — written by an earlier run of this framework or carried in by
// LoadState. Run ID assignment skips such IDs, so a run never overwrites
// another's artifacts.
func (fx *Fex) RunExists(runID string) bool {
	fsys, err := fx.ctr.FS()
	return err == nil && fsys.Exists(runDir(runID))
}

// nextRunID assigns the next framework run ID ("run-0001", …) that no
// existing run directory holds, after every loaded one.
func (fx *Fex) nextRunID() string {
	for {
		if id := fmt.Sprintf("run-%04d", fx.runSeq.Add(1)); !fx.RunExists(id) {
			return id
		}
	}
}

// validRunID accepts caller-supplied run IDs that are safe as a single
// path element: letters, digits, '-', '_', '.', not empty, not starting
// with a dot (no "..", no hidden directories, no separators).
func validRunID(id string) bool {
	if id == "" || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// ProgressEvent is one run-progress notification, delivered through
// RunHooks.Progress: the plan summary before execution starts (Done counts
// the cells already satisfied by replays and dedup) and one event per
// settled cell after. Events arrive one at a time and in order — every
// tier settles cells on the scheduler loop — so Done rises by exactly one
// per "cell" event and ends at Total.
type ProgressEvent struct {
	// Stage is "plan" for the pre-execution summary, "cell" for a settled
	// cell, "hosts" for a cluster host-state change.
	Stage string
	// Done and Total count settled cells out of the run's cell set.
	Done, Total int
	// Replayed and Deduped are the plan's store-replay and in-run
	// duplicate counts.
	Replayed, Deduped int
	// Hosts carries the cluster tier's per-host health and counters; set
	// on "hosts" events (emitted whenever a host changes state or settles
	// a cell) and on every "cell" event of a cluster run. Nil outside
	// the cluster tier.
	Hosts []HostStatus
}

// HostStatus is one cluster host's health and work counters, surfaced
// through ProgressEvent.Hosts, the serve run-status JSON, and the
// end-of-run -v summary.
type HostStatus struct {
	// Host is the host name ("local" for the coordinator's degrade-local
	// pseudo-worker).
	Host string `json:"host"`
	// State is "healthy", "probation", or "evicted".
	State string `json:"state"`
	// Cells counts cells this host completed (wins included).
	Cells int `json:"cells"`
	// Failovers counts placements lost to this host's faults
	// (unreachable, deadline expiry, provision failure).
	Failovers int `json:"failovers"`
	// Probes counts reprobe attempts while in probation.
	Probes int `json:"probes"`
	// SpecWins counts cells this host won with a speculative duplicate;
	// SpecLosses counts this host's placements superseded by a duplicate
	// that finished first elsewhere.
	SpecWins   int `json:"spec_wins"`
	SpecLosses int `json:"spec_losses"`
	// Steals is always 0: hosts take cells from one shared queue, so no
	// host takes a cell from another. The field stays for the readers of
	// earlier status JSON.
	Steals int `json:"steals"`
}

// RunHooks bundles the cross-cutting, per-invocation concerns of one Run:
// the artifact namespace and the observability taps a long-running caller
// (the fex serve service) needs. The zero value is what the CLI uses — a
// framework-assigned run ID and no observers.
type RunHooks struct {
	// RunID names the run's artifact directory under RunsDir; empty lets
	// the framework assign a sequential one ("run-0001"). Must be a single
	// path element (letters, digits, '-', '_', '.').
	RunID string
	// Progress, when set, receives the plan summary and per-cell
	// completion events, one at a time and in order, from the goroutine
	// that called Run.
	Progress func(ProgressEvent)
	// LogSink, when set, receives the run log's bytes as they are
	// produced — header and environment immediately, then each cell's
	// records as the cell settles (the streaming run-log feed of fex
	// serve). The sink observes exactly the bytes of the final stored
	// log, in order.
	LogSink io.Writer
}

// RunReport summarizes one experiment execution.
type RunReport struct {
	// Experiment is the experiment name.
	Experiment string
	// RunID names this run's artifact directory under RunsDir.
	RunID string
	// LogPath and CSVPath locate the artifacts inside the container FS —
	// the legacy per-experiment "latest run" paths.
	LogPath string
	CSVPath string
	// RunLogPath and RunCSVPath are the collision-free run-scoped copies,
	// keyed by RunID.
	RunLogPath string
	RunCSVPath string
	// Measurements is the number of measurement records produced.
	Measurements int
	// Table is the collected result table.
	Table *table.Table
}

// Run executes an experiment end to end: rebuild (unless --no-build), set
// environment, run the experiment loop, then collect the log into a CSV
// table — the all-in-one "fex run" command of §III-B. The context cancels
// an in-flight run cleanly: every execution tier observes it between
// units of work, completed cells stay persisted in the result store, and
// the error unwraps to the context's.
func (fx *Fex) Run(ctx context.Context, cfg Config) (*RunReport, error) {
	return fx.RunWithHooks(ctx, cfg, RunHooks{})
}

// RunWithHooks is Run with per-invocation hooks: a caller-supplied run ID
// and the progress/log observers a service layer needs.
func (fx *Fex) RunWithHooks(ctx context.Context, cfg Config, hooks RunHooks) (*RunReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	runID := hooks.RunID
	if runID == "" {
		runID = fx.nextRunID()
	} else if !validRunID(runID) {
		return nil, fmt.Errorf("core: invalid run ID %q (want letters, digits, '-', '_', '.')", runID)
	}
	cfg, exp, err := fx.ResolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	identity := fx.newBuildIdentity(cfg)

	// The build step runs before each experiment; skipping it is only for
	// quick preliminary runs.
	if !cfg.NoBuild {
		if err := fx.prepareBuild(identity); err != nil {
			return nil, err
		}
	}

	environment := fx.environmentFor(cfg.BuildTypes)
	fsys, err := fx.ctr.FS()
	if err != nil {
		return nil, err
	}

	var logBuf strings.Builder
	var logOut io.Writer = &logBuf
	if hooks.LogSink != nil {
		logOut = io.MultiWriter(&logBuf, hooks.LogSink)
	}
	lw := runlog.NewRunWriter(logOut)
	benchNames := cfg.Benchmarks
	if len(benchNames) == 0 && exp.Suite != "" {
		ws, err := fx.registry.Suite(exp.Suite)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", cfg.Experiment, err)
		}
		for _, w := range ws {
			benchNames = append(benchNames, w.Name())
		}
	}
	lw.WriteHeader(runlog.Header{
		Experiment: cfg.Experiment,
		BuildTypes: cfg.BuildTypes,
		Benchmarks: benchNames,
		Threads:    cfg.Threads,
		Reps:       cfg.Reps,
		Input:      cfg.Input.String(),
		StartedAt:  fx.now(),
	})
	// Store the complete experimental setup in the log (reproducibility).
	lw.WriteEnv(environment.ResolveSorted(cfg.Debug))
	// Push the header and environment to a streaming sink immediately;
	// cell records follow as cells settle (the tiers flush after each
	// merge). Without a sink this just primes the in-memory buffer.
	if err := lw.Flush(); err != nil {
		return nil, fmt.Errorf("flush log: %w", err)
	}

	rc := &RunContext{
		Fex:      fx,
		Config:   cfg,
		Env:      environment,
		Log:      lw,
		Verbose:  fx.verbose,
		ctx:      ctx,
		progress: hooks.Progress,
		identity: identity,
	}
	runner, err := exp.NewRunner(fx)
	if err != nil {
		return nil, err
	}
	if err := runner.Run(rc); err != nil {
		return nil, err
	}
	if err := lw.Flush(); err != nil {
		return nil, fmt.Errorf("flush log: %w", err)
	}
	logText := []byte(logBuf.String())
	// The run-scoped artifact is the durable, collision-free copy; the
	// legacy per-experiment path stays the "latest run" view existing
	// tooling and goldens read.
	if err := fsys.WriteFile(runLogPath(runID, cfg.Experiment), logText, 0o644); err != nil {
		return nil, fmt.Errorf("store run log: %w", err)
	}
	if err := fsys.WriteFile(logPath(cfg.Experiment), logText, 0o644); err != nil {
		return nil, fmt.Errorf("store log: %w", err)
	}

	// Collect immediately, as the all-in-one run command does — from the
	// writer's parsed view of the log just written (every record parsed
	// once, most of them by the cell that produced them), into one CSV
	// stored at both paths.
	lg, err := lw.Log()
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", cfg.Experiment, err)
	}
	tbl, err := collectLog(exp, lg)
	if err != nil {
		return nil, err
	}
	csv := []byte(tbl.CSVString())
	if err := fsys.WriteFile(csvPath(cfg.Experiment), csv, 0o644); err != nil {
		return nil, fmt.Errorf("store csv %s: %w", cfg.Experiment, err)
	}
	if err := fsys.WriteFile(runCSVPath(runID, cfg.Experiment), csv, 0o644); err != nil {
		return nil, fmt.Errorf("store run csv: %w", err)
	}
	return &RunReport{
		Experiment:   cfg.Experiment,
		RunID:        runID,
		LogPath:      logPath(cfg.Experiment),
		CSVPath:      csvPath(cfg.Experiment),
		RunLogPath:   runLogPath(runID, cfg.Experiment),
		RunCSVPath:   runCSVPath(runID, cfg.Experiment),
		Measurements: len(lg.Measurements),
		Table:        tbl,
	}, nil
}

// prepareBuild is the pre-run build step with cross-experiment artifact
// sharing: the first run of a build identity does the classic CleanBuild
// (wipe caches, rebuild from pristine sources); subsequent runs whose
// identity marker matches reuse the warm coordinator cache — artifacts
// are a deterministic function of (workload, build type) under the
// identity's debug mode, calibration and makefiles, so a shared artifact
// measures identically to a fresh one.
// A marker change (e.g. -d after a release run, or an edited build type)
// rebuilds clean, and drops every cluster host image with the
// coordinator's cache. -no-build runs never touch the marker: they reuse
// whatever is cached, as before.
func (fx *Fex) prepareBuild(id buildIdentity) error {
	fx.buildMu.Lock()
	defer fx.buildMu.Unlock()
	hash := id.marker()
	if hash == fx.lastBuildHash {
		fmt.Fprintf(fx.verbose, "== build: artifacts warm (shared across experiments); skipping clean build\n")
		return nil
	}
	fx.lastBuildHash = "" // a failed CleanBuild must not leave a stale marker
	// Host images rebuild clean with the coordinator.
	fx.dropHostImages()
	if err := fx.build.CleanBuild(); err != nil {
		return err
	}
	fx.lastBuildHash = hash
	return nil
}

// Collect parses an experiment's stored log and aggregates it into a CSV
// table via the experiment's collect stage.
func (fx *Fex) Collect(experiment string) (*table.Table, error) {
	exp, err := fx.Experiment(experiment)
	if err != nil {
		return nil, err
	}
	fsys, err := fx.ctr.FS()
	if err != nil {
		return nil, err
	}
	data, err := fsys.ReadFile(logPath(experiment))
	if err != nil {
		return nil, fmt.Errorf("collect %s: no run log (run the experiment first): %w", experiment, err)
	}
	lg, err := runlog.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", experiment, err)
	}
	tbl, err := collectLog(exp, lg)
	if err != nil {
		return nil, err
	}
	if err := fsys.WriteFile(csvPath(experiment), []byte(tbl.CSVString()), 0o644); err != nil {
		return nil, fmt.Errorf("store csv %s: %w", experiment, err)
	}
	return tbl, nil
}

// collectLog aggregates a parsed run log through the experiment's collect
// stage.
func collectLog(exp *Experiment, lg *runlog.Log) (*table.Table, error) {
	collect := exp.Collect
	if collect == nil {
		collect = GenericCollect
	}
	tbl, err := collect(lg)
	if err != nil {
		return nil, fmt.Errorf("collect %s: %w", exp.Name, err)
	}
	return tbl, nil
}

// Plot renders one of the experiment's plots from its collected CSV and
// stores the SVG in the container ("fex plot -n phoenix -t perf").
func (fx *Fex) Plot(experiment, kind string) (string, error) {
	exp, err := fx.Experiment(experiment)
	if err != nil {
		return "", err
	}
	fsys, err := fx.ctr.FS()
	if err != nil {
		return "", err
	}
	data, err := fsys.ReadFile(csvPath(experiment))
	if err != nil {
		return "", fmt.Errorf("plot %s: no collected results (run/collect first): %w", experiment, err)
	}
	tbl, err := table.ReadCSV(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("plot %s: %w", experiment, err)
	}
	if exp.Plot == nil {
		return "", fmt.Errorf("plot %s: experiment defines no plots", experiment)
	}
	svg, err := exp.Plot(tbl, kind)
	if err != nil {
		return "", fmt.Errorf("plot %s (%s): %w", experiment, kind, err)
	}
	if err := fsys.WriteFile(plotPath(experiment, kind), []byte(svg), 0o644); err != nil {
		return "", fmt.Errorf("store plot: %w", err)
	}
	return svg, nil
}

// vfsOf returns the container filesystem (helper for experiments that
// store extra artifacts).
func (fx *Fex) vfsOf() (*vfs.FS, error) { return fx.ctr.FS() }

// SaveState serializes the container filesystem — install manifest, run
// logs, collected CSVs, rendered plots — so a later CLI invocation can
// resume exactly where this one stopped.
func (fx *Fex) SaveState(w io.Writer) error {
	fsys, err := fx.ctr.FS()
	if err != nil {
		return err
	}
	return fsys.Save(w)
}

// LoadState restores container state saved by SaveState. A state saved
// by an earlier build may hold the result store in its earlier layout,
// which the store upgrades in place (store.Store.Upgrade). Of the loaded
// run directories, only the newest keepRuns of each run ID family stay
// (see trimRunHistory), and run IDs continue after the highest loaded
// one (LoadedRunHigh).
func (fx *Fex) LoadState(r io.Reader) error {
	fsys, err := fx.ctr.FS()
	if err != nil {
		return err
	}
	if err := fsys.Load(r); err != nil {
		return err
	}
	if err := fx.store.Upgrade(); err != nil {
		return err
	}
	high, err := trimRunHistory(fsys)
	if err != nil {
		return fmt.Errorf("core: trim run history: %w", err)
	}
	fx.historyMu.Lock()
	fx.loadedHigh = high
	fx.historyMu.Unlock()
	for n := high["run-"]; ; { // runSeq only advances
		cur := fx.runSeq.Load()
		if cur >= n || fx.runSeq.CompareAndSwap(cur, n) {
			return nil
		}
	}
}

// ReadResult returns a stored artifact (log, CSV, or plot) from the
// container filesystem.
func (fx *Fex) ReadResult(path string) ([]byte, error) {
	fsys, err := fx.ctr.FS()
	if err != nil {
		return nil, err
	}
	return fsys.ReadFile(path)
}
