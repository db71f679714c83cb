// Package core is FEX itself — the paper's primary contribution: an
// extensible, practical, reproducible software-systems evaluation
// framework that unifies the entire build–run–collect–plot process across
// benchmark suites and standalone applications.
//
// The package mirrors the architecture of §II:
//
//   - Fex (fex.go) is the entry-point object created per invocation; it
//     retrieves the configuration, sets up the environment, and dispatches
//     the Runner matching the requested experiment (Figure 3).
//   - Runner (runner.go) owns the nested experiment loop with its
//     per-type / per-benchmark / per-thread / per-run hooks (Figure 4);
//     VariableInputRunner extends the loop with an input dimension.
//   - Experiments (experiment.go, perfexp.go, netexp.go, secexp.go) are
//     registered descriptors pairing a runner with collect and plot
//     stages.
//   - Actions (install, build, run, collect, plot, list) mirror fex.py's
//     command surface.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"fex/internal/workload"
)

// Config carries one invocation's experiment parameters — the command-line
// surface of fex.py (§III-B: -t, -b, -r, -m, -i, -v, -d, --no-build).
type Config struct {
	// Experiment is the experiment name (-n).
	Experiment string
	// BuildTypes are the build configurations to compare (-t), e.g.
	// ["gcc_native", "clang_native"].
	BuildTypes []string
	// Benchmarks filters the suite to specific benchmarks (-b); empty
	// runs all.
	Benchmarks []string
	// Threads are the thread counts to sweep (-m); empty means [1].
	Threads []int
	// Reps is the repetition count per configuration (-r); 0 means 1.
	Reps int
	// Input selects the input size class (-i): "test", "small", "native".
	Input workload.SizeClass
	// Debug builds -O0 -g binaries and enables debug-class environment
	// variables (-d).
	Debug bool
	// Verbose enables progress logging (-v).
	Verbose bool
	// NoBuild skips the rebuild before running (--no-build) — only safe
	// for quick preliminary experiments, since stale artifacts can mix
	// old and new flags.
	NoBuild bool
	// Tool selects the measurement tool ("perf-stat", "perf-stat-mem",
	// "time"); empty uses the experiment default.
	Tool string
	// Jobs bounds the experiment scheduler's worker pool (-jobs): how many
	// (build type, benchmark) cells run concurrently. 0 or 1 preserves the
	// paper's strictly serial loop; measured repetitions within a cell are
	// serialized regardless (see schedule.go).
	Jobs int
	// Hosts names the cluster worker hosts (-hosts h1,h2,...) the
	// experiment cells are dispatched to. Empty runs everything locally;
	// non-empty selects the cluster backend (see cluster.go): one worker —
	// container, build system, cell shards — per host, each taking cells
	// from the run's shared queue whenever it is idle, with failover onto
	// the remaining healthy hosts when one becomes unreachable.
	Hosts []string
	// HostTimeout bounds each remote cell placement (-host-timeout): a
	// placement exceeding it is classified as a host fault — the cell
	// fails over and the host enters probation — so a hung machine cannot
	// stall the run past timeout + one failover. Zero (the default, kept
	// for goldens) disables deadlines.
	HostTimeout time.Duration
	// NoSpeculate disables speculative straggler re-execution
	// (-no-speculate), the ablation baseline. By default the cluster tier
	// launches a duplicate of a cell that has run much longer than the
	// run's median cell duration onto a spare idle host, first result
	// wins, loser cancelled; losing shards are discarded before the
	// merge, so byte-identity is unaffected either way.
	NoSpeculate bool
	// Degrade selects the coordinator's behaviour when every cluster
	// host is down or probing (-degrade): "" fails the run (classic
	// semantics), "local" executes queued cells on the coordinator
	// itself until hosts recover.
	Degrade string
	// NoMemo disables the shared execution memo (-no-memo): every
	// repetition physically re-executes the kernel instead of re-deriving
	// its sample from cached counters. Kernels are deterministic by
	// contract, so memoized and unmemoized runs produce identical modeled
	// measurements; the escape hatch exists for wall-clock studies (every
	// wall_ns sample a real kernel execution) and for validating the
	// determinism contract itself.
	NoMemo bool
	// ModelTime records modeled wall time (modeled cycles at the nominal
	// modeled clock, see measure.ModeledClockGHz) instead of live wall time
	// in the "wall_ns" metric (--modeled-time). Modeled time is a pure
	// function of the workload and build type, so runs produce
	// byte-identical logs on any machine — serial, parallel, or cluster.
	ModelTime bool
	// NoDedup disables in-run cell deduplication (-no-dedup): the planner
	// normally measures each distinct cell fingerprint once per run and
	// replays the shard into every duplicate position (a benchmark listed
	// twice in -b, overlapping sweeps). Kernels are deterministic by
	// contract, so deduped and undeduped runs produce byte-identical
	// merged logs; the escape hatch exists for wall-clock studies that
	// want every position physically measured, and as the ablation
	// baseline.
	NoDedup bool
	// Resume consults the persistent result store before executing each
	// experiment cell (-resume): a cell whose fingerprint — experiment,
	// build type, benchmark, thread sweep, input class, tool, repetition
	// policy, and cost-model hash — is already satisfied replays its stored
	// records instead of re-measuring, in every execution tier. Replayed
	// records merge in canonical loop order, so a resumed log and CSV are
	// byte-identical to a cold serial run's.
	Resume bool
	// AdaptiveReps selects adaptive repetition counts (-r auto): each
	// (threads) sweep of a cell runs AdaptivePilot measured repetitions,
	// feeds them to stats.RequiredRepetitions, and keeps measuring until
	// the Student-t confidence interval of the adaptive metric is within
	// RepRelWidth of its mean at RepLevel confidence, capped at
	// AdaptiveCap. Reps is ignored when set. Unless ModelTime is also
	// set, adaptive runs execute every repetition physically (the memo is
	// bypassed): the stop rule watches live wall-time variance, which a
	// cached evaluation would not exhibit.
	AdaptiveReps bool
	// RepLevel is the adaptive confidence level (-r auto:level,relwidth);
	// 0 defaults to DefaultRepLevel.
	RepLevel float64
	// RepRelWidth is the adaptive target half-width as a fraction of the
	// mean; 0 defaults to DefaultRepRelWidth.
	RepRelWidth float64
}

// Normalize validates the config and fills defaults.
func (c *Config) Normalize() error {
	if err := checkToken("experiment name (-n)", c.Experiment); err != nil {
		return err
	}
	if len(c.BuildTypes) == 0 {
		return fmt.Errorf("core: experiment %q requires at least one build type (-t)", c.Experiment)
	}
	seen := make(map[string]bool, len(c.BuildTypes))
	for _, t := range c.BuildTypes {
		if err := checkToken("build type (-t)", t); err != nil {
			return err
		}
		if seen[t] {
			return fmt.Errorf("core: duplicate build type %q", t)
		}
		seen[t] = true
	}
	for _, b := range c.Benchmarks {
		if err := checkToken("benchmark (-b)", b); err != nil {
			return err
		}
	}
	if c.Tool != "" {
		if err := checkToken("measurement tool (-tool)", c.Tool); err != nil {
			return err
		}
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1}
	}
	for _, t := range c.Threads {
		if t < 1 {
			return fmt.Errorf("core: invalid thread count %d", t)
		}
	}
	if c.AdaptiveReps {
		if c.RepLevel == 0 {
			c.RepLevel = DefaultRepLevel
		}
		if c.RepRelWidth == 0 {
			c.RepRelWidth = DefaultRepRelWidth
		}
		if !(c.RepLevel > 0 && c.RepLevel < 1) {
			return fmt.Errorf("core: adaptive confidence level %v out of range (0,1)", c.RepLevel)
		}
		if !(c.RepRelWidth > 0) {
			return fmt.Errorf("core: adaptive relative width %v must be positive", c.RepRelWidth)
		}
		// The pilot batch is the guaranteed minimum; Reps mirrors it so
		// log headers and reports stay meaningful under -r auto.
		c.Reps = AdaptivePilot
	} else {
		// Only -r auto carries the stop rule; a fixed count drops it.
		c.RepLevel, c.RepRelWidth = 0, 0
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.Input == 0 {
		c.Input = workload.SizeNative
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	seenHost := make(map[string]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		if err := checkToken("cluster host name (-hosts)", h); err != nil {
			return err
		}
		if strings.Contains(h, ",") {
			return fmt.Errorf("core: cluster host name (-hosts) %q contains ','", h)
		}
		if seenHost[h] {
			return fmt.Errorf("core: duplicate cluster host %q", h)
		}
		seenHost[h] = true
	}
	if c.HostTimeout < 0 {
		return fmt.Errorf("core: negative host timeout %v", c.HostTimeout)
	}
	switch c.Degrade {
	case "", "local":
	default:
		return fmt.Errorf("core: unknown degrade mode %q (want \"local\")", c.Degrade)
	}
	return nil
}

// checkToken rejects a value the rendered command line cannot carry
// back: an empty value vanishes from it, a leading '-' re-parses as a
// flag, and whitespace splits the value into two tokens.
func checkToken(field, v string) error {
	switch {
	case v == "":
		return fmt.Errorf("core: empty %s", field)
	case strings.HasPrefix(v, "-"):
		return fmt.Errorf("core: %s %q starts with '-'", field, v)
	case strings.ContainsFunc(v, unicode.IsSpace):
		return fmt.Errorf("core: %s %q contains whitespace", field, v)
	}
	return nil
}

// ResolveConfig completes a run configuration against the registered
// experiments: it fills the experiment's default build types when none
// are given, normalizes, and applies the experiment's own validation.
// The CLI, fex serve and RunWithHooks all go through it.
func (fx *Fex) ResolveConfig(cfg Config) (Config, *Experiment, error) {
	var exp *Experiment
	if cfg.Experiment != "" {
		var err error
		if exp, err = fx.Experiment(cfg.Experiment); err != nil {
			return cfg, nil, err
		}
		if len(cfg.BuildTypes) == 0 {
			cfg.BuildTypes = exp.DefaultTypes
		}
	}
	// Normalize rejects the empty experiment name, so exp is set below.
	if err := cfg.Normalize(); err != nil {
		return cfg, nil, err
	}
	return cfg, exp, exp.ValidateConfig(cfg)
}

// ParseThreadList parses a "-m 1 2 4"-style argument list.
func ParseThreadList(args []string) ([]int, error) {
	out := make([]int, 0, len(args))
	for _, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("core: bad thread count %q: %w", a, err)
		}
		out = append(out, n)
	}
	return out, nil
}
