package core

// This file is the run planner: the plan-ahead stage every run routes
// through before the scheduler executes it. Where the paper's experiment loop (Figure 4) re-derives
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
//   - the first cold cell of each build type starts measuring as soon as
//     its *own* build finishes, instead of after all builds (builds
//     pipeline with measurement; see the scheduler in schedule.go), except
//     in the serial run, which keeps the paper's type-by-type order.
//
// The determinism contract is untouched: shards still merge into the main
// log in canonical loop order, so a planned run's log and CSV are
// byte-identical to the unplanned serial loop's — proven by the cross-tier
// determinism suite and a dedup-vs-undeduped property test.

import (
	"fmt"

	"fex/internal/runlog"
	"fex/internal/store"
	"fex/internal/workload"
)

// runPlan is one experiment's resolved execution plan. All slices are
// positionally aligned with cells (canonical loop order).
type runPlan struct {
	cells []cell
	// fps holds each cell's fingerprint, rendered once for the plan's
	// dedup, store lookup and store put.
	fps []store.Cell
	// shards holds, per position: the replayed shard (store hit) from plan
	// time, the measured shard once the cell executes, or nil. Duplicate
	// positions are backfilled from their canonical cell at commit time.
	shards []*runlog.Shard
	// canon[i] is the index of the cell position i is measured by: i
	// itself for canonical cells, an earlier index for in-run duplicates.
	canon []int
	// coldTypes are the build types with at least one cell to execute;
	// only these get a build node in the DAG. A type whose cells all
	// replay or dedup is warm: its build is skipped (and logged).
	coldTypes map[string]bool

	// Plan summary counters (-v); pending counts the cells the plan
	// measures.
	pending  int
	replayed int
	deduped  int

	// done counts settled cells for progress events: replayed and deduped
	// positions settle at plan time, executed cells advance it on the
	// scheduler loop.
	done int
	// next is the first position not yet committed into the run log.
	next int
}

// planRun resolves an experiment's cells into an execution plan: one
// batched store pass (planReplays/BulkGet), then in-run dedup by
// fingerprint, then the cold-build set. Dedup runs unless Config.NoDedup:
// two positions with equal fingerprints produce identical records by the
// determinism contract, so measuring the canonical one and replaying its
// shard into the duplicate position preserves the merged-log bytes
// exactly.
func planRun(rc *RunContext, cells []cell) *runPlan {
	p := &runPlan{
		cells:     cells,
		fps:       make([]store.Cell, len(cells)),
		canon:     make([]int, len(cells)),
		coldTypes: make(map[string]bool, len(rc.Config.BuildTypes)),
	}
	run := runFingerprint(rc.identity, rc.Config)
	for i, c := range cells {
		p.fps[i] = store.NewCell(cellFingerprint(run, c, rc.identity))
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
			p.pending++
		}
	}
	return p
}

// event renders a progress event of the given stage at the plan's current
// settled count.
func (p *runPlan) event(stage string) ProgressEvent {
	return ProgressEvent{Stage: stage, Done: p.done, Total: len(p.cells),
		Replayed: p.replayed, Deduped: p.deduped}
}

// executes reports whether position i is a canonical cold cell — one the
// plan actually measures (not a store replay, not an in-run duplicate).
func (p *runPlan) executes(i int) bool {
	return p.shards[i] == nil && p.canon[i] == i
}

// commit appends settled shards to lw in canonical order, from the first
// uncommitted position up to end, backfilling each in-run duplicate from
// its canonical cell (always an earlier position), and flushes the
// appended records to a streaming log sink. It stops at the first
// unsettled position; a final commit skips unsettled positions instead,
// so a failed run merges every shard it has — partial work included.
func (p *runPlan) commit(lw *runlog.Writer, end int, final bool) error {
	start := p.next
	for ; p.next < end; p.next++ {
		i := p.next
		if p.shards[i] == nil && p.canon[i] != i {
			p.shards[i] = p.shards[p.canon[i]]
		}
		if p.shards[i] == nil {
			if final {
				continue
			}
			break
		}
		if err := lw.Append(p.shards[i]); err != nil {
			return err
		}
	}
	if p.next == start {
		return nil
	}
	return lw.Flush()
}

// memoWarm counts the plan's memo-warm cells: for every cell about to
// execute, it checks whether an artifact is already built and the shared
// memo holds executions for the cell's full thread sweep (under this
// build type or any other) — those cells re-derive their samples in O(1)
// per repetition instead of running kernels. The count is summary-only
// (memo-warm cells still execute, they are just cheap), so only the -v
// summary computes it; variable-input cells (dims != "") sweep inputs
// inside the cell and are not probed.
func (p *runPlan) memoWarm(rc *RunContext) int {
	build := rc.build
	if build == nil {
		build = rc.Fex.build
	}
	if build == nil {
		return 0
	}
	n := 0
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
			n++
		}
	}
	return n
}

// logSummary writes the plan to the -v stream before execution starts:
// how much of the run is already satisfied, and which builds were elided.
func (p *runPlan) logSummary(rc *RunContext) {
	if !rc.Config.Verbose || rc.Verbose == nil {
		return
	}
	execN := p.pending
	line := fmt.Sprintf("== plan: %d cells: %d execute, %d replayed, %d deduped; builds: %d of %d types",
		len(p.cells), execN, p.replayed, p.deduped, len(p.coldTypes), len(rc.Config.BuildTypes))
	if n := p.memoWarm(rc); n > 0 {
		line += fmt.Sprintf(" (%d memo-warm)", n)
	}
	rc.logf("%s", line)
}

// runExperiment is the single entry point of the execution tiers: it
// checks that the benchmarks' sources are installed, decomposes the run
// into cells, plans it, hands the plan to the scheduler, and merges
// whatever the scheduler left uncommitted. perType receives the
// RunContext it must log and act through — the scheduler passes a
// verbose-serialized context, since builds may overlap cell measurement.
func runExperiment(rc *RunContext, benches []workload.Workload, dims string, perType func(*RunContext, string) error, cellFn func(*RunContext, cell) error) error {
	if err := rc.cancelled(); err != nil {
		return err
	}
	if err := requireSources(rc, benches); err != nil {
		return err
	}
	cells := makeCells(rc.Config.BuildTypes, benches, dims)
	p := planRun(rc, cells)
	p.logSummary(rc)
	p.done = len(cells) - p.pending
	rc.reportProgress(p.event("plan"))
	err := runPlanned(rc, p, perType, cellFn)
	if mergeErr := p.commit(rc.Log, len(cells), true); mergeErr != nil && err == nil {
		err = mergeErr
	}
	return err
}

// noPerType is the per-type action of runners that have none.
func noPerType(*RunContext, string) error { return nil }
