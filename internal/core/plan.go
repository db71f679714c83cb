package core

// This file is the run planner: the plan-ahead stage every execution tier
// routes through. Where the paper's experiment loop (Figure 4) re-derives
// each decision cell-by-cell at execution time, the planner fingerprints
// every cell up front, resolves the whole set against the result store and
// the execution memo in one batch, dedups identical cells within the run,
// and derives the execution DAG's build nodes from the actual cold set:
//
//   - a cell whose fingerprint is satisfied by the store replays (-resume);
//   - a cell identical to an earlier cell in the run (same fingerprint —
//     duplicated sweeps, overlapping experiment configs) is measured once
//     and its shard merged into every canonical position;
//   - a build type all of whose cells are replays or duplicates is never
//     built at all;
//   - in the parallel tiers, the first cold cell of each build type starts
//     measuring as soon as its *own* build finishes, instead of after all
//     builds (builds pipeline with measurement; see runParallel).
//
// The determinism contract is untouched: shards still merge into the main
// log in canonical loop order, so a planned run's log and CSV are
// byte-identical to the unplanned serial loop's — proven by the cross-tier
// determinism suite and a dedup-vs-undeduped property test.

import (
	"fmt"
	"sync/atomic"

	"fex/internal/runlog"
	"fex/internal/store"
	"fex/internal/workload"
)

// runPlan is one experiment's resolved execution plan. All slices are
// positionally aligned with cells (canonical loop order).
type runPlan struct {
	cells []cell
	fps   []store.Fingerprint
	// shards holds, per position: the replayed shard (store hit) from plan
	// time, the measured shard once the cell executes, or nil. Duplicate
	// positions are backfilled from their canonical cell after it runs.
	shards []*runlog.Shard
	// canon[i] is the index of the cell position i is measured by: i
	// itself for canonical cells, an earlier index for in-run duplicates.
	canon []int
	// coldTypes are the build types with at least one cell to execute;
	// only these get a build node in the DAG. warmTypes had cells, but
	// every one replays or dedups — their build is skipped (and logged).
	coldTypes map[string]bool
	warmTypes map[string]bool

	// Plan summary counters (-v).
	replayed int
	deduped  int
	memoWarm int

	// done counts settled cells for progress events: replayed and deduped
	// positions settle at plan time, executed cells advance it from the
	// (possibly concurrent) scheduler workers.
	done atomic.Int64
}

// planRun resolves an experiment's cells into an execution plan: one
// batched store pass (planReplays/BulkGet), then in-run dedup by
// fingerprint, then the cold-build set, then a memo-warmth probe for the
// summary. Dedup runs unless Config.NoDedup: two positions with equal
// fingerprints produce identical records by the determinism contract, so
// measuring the canonical one and replaying its shard into the duplicate
// position preserves the merged-log bytes exactly.
func planRun(rc *RunContext, cells []cell) *runPlan {
	p := &runPlan{
		cells:     cells,
		fps:       make([]store.Fingerprint, len(cells)),
		canon:     make([]int, len(cells)),
		coldTypes: make(map[string]bool, len(rc.Config.BuildTypes)),
		warmTypes: make(map[string]bool, len(rc.Config.BuildTypes)),
	}
	for i, c := range cells {
		p.fps[i] = cellFingerprint(rc.Fex, rc.Config, c)
		p.canon[i] = i
	}
	p.shards = planReplays(rc, cells, p.fps)
	firstByKey := make(map[string]int, len(cells))
	for i := range cells {
		if p.shards[i] != nil {
			p.replayed++
			continue
		}
		key := p.fps[i].Key()
		if j, ok := firstByKey[key]; ok && !rc.Config.NoDedup {
			p.canon[i] = j
			p.deduped++
			continue
		}
		if _, ok := firstByKey[key]; !ok {
			firstByKey[key] = i
		}
	}
	for i, c := range cells {
		if p.executes(i) {
			p.coldTypes[c.buildType] = true
		}
	}
	for _, c := range cells {
		if !p.coldTypes[c.buildType] {
			p.warmTypes[c.buildType] = true
		}
	}
	p.probeMemo(rc)
	return p
}

// executes reports whether position i is a canonical cold cell — one the
// plan actually measures (not a store replay, not an in-run duplicate).
func (p *runPlan) executes(i int) bool {
	return p.shards[i] == nil && p.canon[i] == i
}

// pendingCount is the number of cells the plan measures.
func (p *runPlan) pendingCount() int {
	n := 0
	for i := range p.cells {
		if p.executes(i) {
			n++
		}
	}
	return n
}

// backfillDuplicates copies each canonical cell's shard into its
// duplicate positions. Canonical cells always precede their duplicates in
// canonical order, so after execution (or partial execution — a failed
// run leaves nil canonicals, and their duplicates stay nil too) this is a
// pure replay of already-measured records.
func (p *runPlan) backfillDuplicates() {
	for i := range p.cells {
		if p.shards[i] == nil && p.canon[i] != i {
			p.shards[i] = p.shards[p.canon[i]]
		}
	}
}

// probeMemo resolves the plan against the execution memo in the same
// batch: for every cell about to execute, it checks whether an artifact
// is already built and the shared memo holds executions for the cell's
// full thread sweep (under this build type or any other) — those cells
// re-derive their samples in O(1) per repetition instead of running
// kernels. The probe is summary-only (memo-warm cells still execute,
// they are just cheap); variable-input cells (dims != "") sweep inputs
// inside the cell and are not probed.
func (p *runPlan) probeMemo(rc *RunContext) {
	build := rc.build
	if build == nil {
		build = rc.Fex.build
	}
	if build == nil {
		return
	}
	for i, c := range p.cells {
		if !p.executes(i) || c.dims != "" {
			continue
		}
		a := build.Cached(c.workload, c.buildType, rc.Config.Debug)
		if a == nil {
			continue
		}
		in := c.workload.DefaultInput(rc.Config.Input)
		warm := true
		for _, threads := range rc.Config.Threads {
			if !a.Memoized(in, threads) {
				warm = false
				break
			}
		}
		if warm {
			p.memoWarm++
		}
	}
}

// logSummary writes the plan to the -v stream before execution starts:
// how much of the run is already satisfied, and which builds were elided.
func (p *runPlan) logSummary(rc *RunContext) {
	if !rc.Config.Verbose || rc.Verbose == nil {
		return
	}
	execN := p.pendingCount()
	line := fmt.Sprintf("== plan: %d cells: %d execute, %d replayed, %d deduped; builds: %d of %d types",
		len(p.cells), execN, p.replayed, p.deduped, len(p.coldTypes), len(rc.Config.BuildTypes))
	if p.memoWarm > 0 {
		line += fmt.Sprintf(" (%d memo-warm)", p.memoWarm)
	}
	rc.logf("%s", line)
}

// runExperiment is the single entry point of the execution tiers: it
// decomposes the run into cells, plans it, and hands the plan to the
// serial loop or the parallel/cluster scheduler. perType receives the
// RunContext it must log and act through — the executor passes a
// verbose-serialized context in the parallel tiers, where builds overlap
// cell measurement.
func runExperiment(rc *RunContext, benches []workload.Workload, dims string, perType func(*RunContext, string) error, cellFn func(*RunContext, cell) error) error {
	if err := rc.cancelled(); err != nil {
		return err
	}
	cells := makeCells(rc.Config.BuildTypes, benches, dims)
	p := planRun(rc, cells)
	p.logSummary(rc)
	rc.reportProgress(ProgressEvent{Stage: "plan", Done: len(cells) - p.pendingCount(),
		Total: len(cells), Replayed: p.replayed, Deduped: p.deduped})
	if rc.Config.Jobs > 1 || len(rc.Config.Hosts) > 0 {
		return runParallel(rc, p, perType, cellFn)
	}
	return runSerial(rc, p, perType, cellFn)
}
