// Package measure is the measurement substrate — the role perf-stat and
// time play in the paper (Table I lists "perf-stat (generic), perf-stat
// (memory), time").
//
// Every benchmark run produces modeled hardware counters (cycles,
// instructions, cache misses, branch mispredictions, max RSS), derived
// deterministically from the kernel's workload.Counters and the active
// build type's CostVector, and wall time is those cycles at a nominal
// clock (Sample.ModeledWall). Kernels never see the build type — only the
// cost model tells build types apart — so every metric, wall time
// included, is machine-independent: an experiment produces identical
// numbers on any host, which is precisely the reproducibility property
// the paper builds FEX around.
package measure

import (
	"fmt"
	"math"
	"sort"
	"time"

	"fex/internal/workload"
)

// CostVector is a build configuration's execution cost model: cycles per
// operation class, cache behaviour, and allocator overheads. A compiler's
// codegen quality, an instrumentation pass's checks, and debug-build
// penalties all compose by multiplying/adding onto this vector.
type CostVector struct {
	// Per-operation cycle costs.
	IntOp       float64
	FloatOp     float64
	TrigOp      float64
	SqrtOp      float64
	MemRead     float64
	MemWrite    float64
	StridedRead float64 // extra cost per cache-unfriendly access
	Branch      float64
	SyncOp      float64
	// Allocator costs: cycles per allocation and per allocated byte.
	AllocOp   float64
	AllocByte float64
	// Cache model: probability that a memory access misses L1, and that an
	// L1 miss also misses the LLC. Strided accesses use the strided rates.
	L1MissRate        float64
	LLCMissRate       float64
	StridedL1Rate     float64
	StridedLLCRate    float64
	BranchMissRate    float64
	L1MissPenalty     float64
	LLCMissPenalty    float64
	BranchMissPenalty float64
	// MemFactor scales resident memory (instrumentation such as ASan
	// roughly triples it via shadow memory and redzones).
	MemFactor float64
}

// Baseline returns the reference cost vector (native GCC -O2 on the modeled
// Xeon-class machine). All build types are derived from it.
func Baseline() CostVector {
	return CostVector{
		IntOp:             0.25,
		FloatOp:           0.5,
		TrigOp:            12,
		SqrtOp:            4,
		MemRead:           0.5,
		MemWrite:          1.0,
		StridedRead:       2.0,
		Branch:            0.3,
		SyncOp:            30,
		AllocOp:           40,
		AllocByte:         0.02,
		L1MissRate:        0.03,
		LLCMissRate:       0.10,
		StridedL1Rate:     0.40,
		StridedLLCRate:    0.30,
		BranchMissRate:    0.04,
		L1MissPenalty:     10,
		LLCMissPenalty:    180,
		BranchMissPenalty: 14,
		MemFactor:         1.0,
	}
}

// Scale multiplies the per-operation costs by the given factors (1.0 keeps
// a dimension unchanged); it returns a new vector.
type Scale struct {
	IntOp, FloatOp, TrigOp, SqrtOp     float64
	MemRead, MemWrite, StridedRead     float64
	Branch, SyncOp                     float64
	AllocOp, AllocByte                 float64
	L1MissRate, LLCMissRate, MemFactor float64
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// Apply returns cv scaled by s.
func (cv CostVector) Apply(s Scale) CostVector {
	out := cv
	out.IntOp *= orOne(s.IntOp)
	out.FloatOp *= orOne(s.FloatOp)
	out.TrigOp *= orOne(s.TrigOp)
	out.SqrtOp *= orOne(s.SqrtOp)
	out.MemRead *= orOne(s.MemRead)
	out.MemWrite *= orOne(s.MemWrite)
	out.StridedRead *= orOne(s.StridedRead)
	out.Branch *= orOne(s.Branch)
	out.SyncOp *= orOne(s.SyncOp)
	out.AllocOp *= orOne(s.AllocOp)
	out.AllocByte *= orOne(s.AllocByte)
	out.L1MissRate *= orOne(s.L1MissRate)
	out.LLCMissRate *= orOne(s.LLCMissRate)
	out.MemFactor *= orOne(s.MemFactor)
	return out
}

// Canonical renders the vector as a canonical field=value string. Two
// vectors are equal exactly when their canonical strings are equal, so the
// string (or a digest of it) can key caches of measurements taken under
// this cost model — the result store fingerprints cells with it, making
// any recalibration of the model invalidate stored results automatically.
func (cv CostVector) Canonical() string {
	return fmt.Sprintf("int=%g|float=%g|trig=%g|sqrt=%g|memr=%g|memw=%g|stride=%g|branch=%g|sync=%g|"+
		"allocop=%g|allocb=%g|l1=%g|llc=%g|sl1=%g|sllc=%g|bmiss=%g|l1pen=%g|llcpen=%g|bpen=%g|memf=%g",
		cv.IntOp, cv.FloatOp, cv.TrigOp, cv.SqrtOp, cv.MemRead, cv.MemWrite, cv.StridedRead, cv.Branch, cv.SyncOp,
		cv.AllocOp, cv.AllocByte, cv.L1MissRate, cv.LLCMissRate, cv.StridedL1Rate, cv.StridedLLCRate,
		cv.BranchMissRate, cv.L1MissPenalty, cv.LLCMissPenalty, cv.BranchMissPenalty, cv.MemFactor)
}

// Sample is one benchmark run's measurements.
type Sample struct {
	// Modeled hardware counters.
	Cycles       float64
	Instructions float64
	L1DMisses    float64
	LLCMisses    float64
	BranchMisses float64
	// MaxRSSBytes is the modeled peak resident set.
	MaxRSSBytes float64
	// MemStallCycles is the cycle cost of the cache misses above under the
	// active cost vector's miss penalties (the "mem_cycles" metric of the
	// perf-stat-mem tool).
	MemStallCycles float64
	// MemReads and MemWrites carry the kernel's data-access mix (reads
	// include strided accesses); the perf-stat-mem tool derives its
	// write_ratio metric from them.
	MemReads  float64
	MemWrites float64
	// Checksum is the kernel's result digest (for cross-build validation).
	Checksum uint64
	// Threads records the thread count of the run.
	Threads int
}

// IPC returns instructions per cycle.
func (s Sample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return s.Instructions / s.Cycles
}

// WriteRatio returns the fraction of data accesses that are writes — the
// write_ratio metric of the perf-stat-mem tool. A sample with no data
// accesses has ratio 0.
func (s Sample) WriteRatio() float64 {
	total := s.MemReads + s.MemWrites
	if total == 0 {
		return 0
	}
	return s.MemWrites / total
}

// Model converts a kernel's counters into modeled hardware counters under
// the given cost vector. The model is deterministic: same counters + same
// vector = same sample, on any machine.
//
// Parallel execution divides the dominated work across threads and adds a
// synchronization term, giving the sublinear scaling curves the
// multithreading experiments plot.
func Model(c workload.Counters, cv CostVector, threads int) (Sample, error) {
	if threads < 1 {
		return Sample{}, fmt.Errorf("measure: threads %d", threads)
	}
	seqReads := float64(c.MemReads)
	strided := float64(c.StridedReads)
	if strided > seqReads {
		strided = seqReads
	}
	seqReads -= strided

	l1Misses := seqReads*cv.L1MissRate + strided*cv.StridedL1Rate
	llcMisses := seqReads*cv.L1MissRate*cv.LLCMissRate + strided*cv.StridedL1Rate*cv.StridedLLCRate
	branchMisses := float64(c.Branches) * cv.BranchMissRate

	memStall := l1Misses*cv.L1MissPenalty + llcMisses*cv.LLCMissPenalty
	work := float64(c.IntOps)*cv.IntOp +
		float64(c.FloatOps)*cv.FloatOp +
		float64(c.TrigOps)*cv.TrigOp +
		float64(c.SqrtOps)*cv.SqrtOp +
		seqReads*cv.MemRead +
		strided*(cv.MemRead+cv.StridedRead) +
		float64(c.MemWrites)*cv.MemWrite +
		float64(c.Branches)*cv.Branch +
		float64(c.AllocCount)*cv.AllocOp +
		float64(c.AllocBytes)*cv.AllocByte +
		memStall +
		branchMisses*cv.BranchMissPenalty

	// Amdahl-style parallel section with a small imbalance penalty plus an
	// explicit synchronization term.
	t := float64(threads)
	imbalance := 1 + 0.03*math.Log2(t)
	cycles := work/t*imbalance + float64(c.SyncOps)*cv.SyncOp

	return Sample{
		Cycles:         cycles,
		Instructions:   float64(c.TotalOps()),
		L1DMisses:      l1Misses,
		LLCMisses:      llcMisses,
		BranchMisses:   branchMisses,
		MaxRSSBytes:    float64(c.AllocBytes) * cv.MemFactor,
		MemStallCycles: memStall,
		MemReads:       float64(c.MemReads),
		MemWrites:      float64(c.MemWrites),
		Checksum:       c.Checksum,
		Threads:        threads,
	}, nil
}

// ModeledClockGHz is the nominal clock rate of the modeled Xeon-class
// machine, used to convert modeled cycles into modeled wall time.
const ModeledClockGHz = 2.6

// ModeledWall converts the sample's modeled cycles into wall time at the
// nominal modeled clock — the only wall time Fex reports (the "wall_ns"
// metric, the time tool's wall_seconds). Only the cost model tells build
// types apart, so live time would measure the harness, not the build; the
// modeled figure is a pure function of the workload and cost vector, and
// every run produces byte-identical logs on any machine.
func (s Sample) ModeledWall() time.Duration {
	return time.Duration(s.Cycles / ModeledClockGHz)
}

// Tool extracts a named metric set from a Sample — the FEX measurement
// tools of Table I.
type Tool interface {
	// Name identifies the tool ("perf-stat", "perf-stat-mem", "time").
	Name() string
	// Collect writes the sample's metrics into out. Writing into a
	// caller-provided (typically pooled) vector keeps the per-repetition
	// hot path free of allocations.
	Collect(s Sample, out *MetricVector)
}

// PerfStat is the generic perf-stat tool: cycles, instructions, IPC,
// branches.
type PerfStat struct{}

var _ Tool = PerfStat{}

// Name implements Tool.
func (PerfStat) Name() string { return "perf-stat" }

// Collect implements Tool.
func (PerfStat) Collect(s Sample, out *MetricVector) {
	out.Set("cycles", s.Cycles)
	out.Set("instructions", s.Instructions)
	out.Set("ipc", s.IPC())
	out.Set("branch_misses", s.BranchMisses)
}

// PerfStatMem is the memory-flavoured perf-stat tool: cache misses by level
// and resident memory.
type PerfStatMem struct{}

var _ Tool = PerfStatMem{}

// Name implements Tool.
func (PerfStatMem) Name() string { return "perf-stat-mem" }

// Collect implements Tool.
func (PerfStatMem) Collect(s Sample, out *MetricVector) {
	out.Set("l1d_misses", s.L1DMisses)
	out.Set("llc_misses", s.LLCMisses)
	out.Set("max_rss", s.MaxRSSBytes)
	out.Set("cache_refs", s.L1DMisses+s.LLCMisses)
	out.Set("mem_cycles", s.MemStallCycles)
	out.Set("rss_mbytes", s.MaxRSSBytes/(1<<20))
	out.Set("cycles", s.Cycles)
	out.Set("write_ratio", s.WriteRatio())
}

// TimeTool is the /usr/bin/time equivalent: (modeled) wall seconds and max RSS.
type TimeTool struct{}

var _ Tool = TimeTool{}

// Name implements Tool.
func (TimeTool) Name() string { return "time" }

// Collect implements Tool.
func (TimeTool) Collect(s Sample, out *MetricVector) {
	out.Set("wall_seconds", s.ModeledWall().Seconds())
	out.Set("max_rss", s.MaxRSSBytes)
	out.Set("cycles", s.Cycles)
}

// ToolByName returns a tool by its registry name.
func ToolByName(name string) (Tool, error) {
	switch name {
	case "perf-stat", "":
		return PerfStat{}, nil
	case "perf-stat-mem":
		return PerfStatMem{}, nil
	case "time":
		return TimeTool{}, nil
	default:
		return nil, fmt.Errorf("measure: unknown tool %q", name)
	}
}

// ToolNames lists the supported measurement tools.
func ToolNames() []string {
	names := []string{"perf-stat", "perf-stat-mem", "time"}
	sort.Strings(names)
	return names
}
