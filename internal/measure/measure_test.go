package measure

import (
	"errors"
	"testing"
	"testing/quick"

	"fex/internal/workload"
)

func sampleCounters() workload.Counters {
	return workload.Counters{
		IntOps: 1000, FloatOps: 500, TrigOps: 100, SqrtOps: 50,
		MemReads: 2000, MemWrites: 800, StridedReads: 200,
		Branches: 600, AllocBytes: 4096, AllocCount: 4,
		SyncOps: 8, Checksum: 0xABCD,
	}
}

func TestModelBasicProperties(t *testing.T) {
	s, err := Model(sampleCounters(), Baseline(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles <= 0 || s.Instructions <= 0 {
		t.Errorf("sample %+v", s)
	}
	if s.Checksum != 0xABCD {
		t.Error("checksum not carried through")
	}
	if s.MaxRSSBytes != 4096 {
		t.Errorf("rss %v", s.MaxRSSBytes)
	}
}

func TestModelRejectsBadThreads(t *testing.T) {
	if _, err := Model(sampleCounters(), Baseline(), 0); err == nil {
		t.Error("expected error")
	}
}

func TestModelMonotonicInWork(t *testing.T) {
	small, _ := Model(sampleCounters(), Baseline(), 1)
	big := sampleCounters()
	big.FloatOps *= 10
	bigS, _ := Model(big, Baseline(), 1)
	if bigS.Cycles <= small.Cycles {
		t.Error("more work did not increase cycles")
	}
}

func TestModelThreadScaling(t *testing.T) {
	c := sampleCounters()
	c.IntOps = 1_000_000 // enough parallel work to dominate sync cost
	s1, _ := Model(c, Baseline(), 1)
	s4, _ := Model(c, Baseline(), 4)
	if s4.Cycles >= s1.Cycles {
		t.Error("4 threads not faster than 1")
	}
	// But not superlinear.
	if s4.Cycles < s1.Cycles/4 {
		t.Errorf("superlinear scaling: %v vs %v", s4.Cycles, s1.Cycles)
	}
}

func TestModelSyncCostLimitsScaling(t *testing.T) {
	c := workload.Counters{IntOps: 100, SyncOps: 10_000}
	s1, _ := Model(c, Baseline(), 1)
	s8, _ := Model(c, Baseline(), 8)
	// Sync-dominated workloads barely improve.
	if s8.Cycles < s1.Cycles*0.9 {
		t.Errorf("sync-bound workload scaled too well: %v vs %v", s8.Cycles, s1.Cycles)
	}
}

func TestModelStridedCostsMore(t *testing.T) {
	seq := workload.Counters{MemReads: 10_000}
	strided := workload.Counters{MemReads: 10_000, StridedReads: 10_000}
	s1, _ := Model(seq, Baseline(), 1)
	s2, _ := Model(strided, Baseline(), 1)
	if s2.Cycles <= s1.Cycles {
		t.Error("strided access not more expensive")
	}
	if s2.LLCMisses <= s1.LLCMisses {
		t.Error("strided access did not raise LLC misses")
	}
}

func TestModelMemFactor(t *testing.T) {
	cv := Baseline().Apply(Scale{MemFactor: 3})
	s, _ := Model(sampleCounters(), cv, 1)
	if s.MaxRSSBytes != 4096*3 {
		t.Errorf("rss %v", s.MaxRSSBytes)
	}
}

func TestScaleIdentity(t *testing.T) {
	cv := Baseline().Apply(Scale{})
	if cv != Baseline() {
		t.Error("zero scale changed the vector")
	}
}

func TestScaleApply(t *testing.T) {
	cv := Baseline().Apply(Scale{TrigOp: 2})
	if cv.TrigOp != Baseline().TrigOp*2 {
		t.Errorf("TrigOp %v", cv.TrigOp)
	}
	if cv.IntOp != Baseline().IntOp {
		t.Error("unrelated dimension changed")
	}
}

func TestIPC(t *testing.T) {
	s := Sample{Cycles: 200, Instructions: 100}
	if got := s.IPC(); got != 0.5 {
		t.Errorf("IPC = %v", got)
	}
	if (Sample{}).IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
}

func TestToolsCollectExpectedMetrics(t *testing.T) {
	s := Sample{Cycles: 100, Instructions: 50, L1DMisses: 5, LLCMisses: 1,
		MaxRSSBytes: 2048, BranchMisses: 3}
	cases := []struct {
		tool Tool
		keys []string
	}{
		{PerfStat{}, []string{"cycles", "instructions", "ipc", "branch_misses"}},
		{PerfStatMem{}, []string{"l1d_misses", "llc_misses", "max_rss"}},
		{TimeTool{}, []string{"wall_seconds", "max_rss"}},
	}
	for _, c := range cases {
		got := NewMetricVector()
		c.tool.Collect(s, got)
		for _, k := range c.keys {
			if !got.Has(k) {
				t.Errorf("%s missing metric %q", c.tool.Name(), k)
			}
		}
	}
}

func TestToolByName(t *testing.T) {
	for _, name := range append(ToolNames(), "") {
		if _, err := ToolByName(name); err != nil {
			t.Errorf("ToolByName(%q): %v", name, err)
		}
	}
	if _, err := ToolByName("vtune"); err == nil {
		t.Error("expected error for unknown tool")
	}
}

func TestAggregateMeans(t *testing.T) {
	samples := []Sample{
		{Cycles: 100, Instructions: 10, Checksum: 7},
		{Cycles: 200, Instructions: 20, Checksum: 7},
	}
	agg, err := Aggregate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Cycles != 150 || agg.Instructions != 15 {
		t.Errorf("agg %+v", agg)
	}
}

func TestAggregateChecksumMismatch(t *testing.T) {
	samples := []Sample{{Checksum: 1}, {Checksum: 2}}
	if _, err := Aggregate(samples); err == nil {
		t.Error("expected checksum mismatch error")
	}
}

func TestAggregateEmpty(t *testing.T) {
	if _, err := Aggregate(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("got %v", err)
	}
}

func TestQuickModelDeterministic(t *testing.T) {
	prop := func(ints, reads uint32, threads uint8) bool {
		th := int(threads%8) + 1
		c := workload.Counters{IntOps: uint64(ints), MemReads: uint64(reads)}
		a, err1 := Model(c, Baseline(), th)
		b, err2 := Model(c, Baseline(), th)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMoreThreadsNeverSlowerForParallelWork(t *testing.T) {
	prop := func(work uint32) bool {
		c := workload.Counters{IntOps: uint64(work) + 1000}
		s1, err1 := Model(c, Baseline(), 1)
		s2, err2 := Model(c, Baseline(), 2)
		return err1 == nil && err2 == nil && s2.Cycles <= s1.Cycles
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMemCyclesDerivedFromCostVector(t *testing.T) {
	c := workload.Counters{MemReads: 100000, StridedReads: 20000, IntOps: 1000}

	// Under the baseline, mem_cycles must equal the misses weighted by the
	// baseline's penalties — no hardcoded constants.
	base := Baseline()
	s, err := Model(c, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := s.L1DMisses*base.L1MissPenalty + s.LLCMisses*base.LLCMissPenalty
	mv := NewMetricVector()
	PerfStatMem{}.Collect(s, mv)
	got := mv.Value("mem_cycles")
	if got != want {
		t.Errorf("mem_cycles = %g, want %g", got, want)
	}

	// A vector with different penalties must shift mem_cycles accordingly:
	// the metric tracks the active cost model, not the baseline.
	slow := base
	slow.L1MissPenalty = 25
	slow.LLCMissPenalty = 400
	s2, err := Model(c, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	want2 := s2.L1DMisses*25 + s2.LLCMisses*400
	mv2 := NewMetricVector()
	PerfStatMem{}.Collect(s2, mv2)
	got2 := mv2.Value("mem_cycles")
	if got2 != want2 {
		t.Errorf("mem_cycles under modified vector = %g, want %g", got2, want2)
	}
	if got2 == got {
		t.Error("mem_cycles ignored the cost vector's penalties")
	}
}

func TestAggregateAveragesMemStallCycles(t *testing.T) {
	a := Sample{MemStallCycles: 100, Checksum: 7, Threads: 1}
	b := Sample{MemStallCycles: 300, Checksum: 7, Threads: 1}
	agg, err := Aggregate([]Sample{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if agg.MemStallCycles != 200 {
		t.Errorf("MemStallCycles = %g, want 200", agg.MemStallCycles)
	}
}

func TestModeledWallIsDeterministic(t *testing.T) {
	c := workload.Counters{IntOps: 1 << 20, MemReads: 1 << 18}
	s1, err := Model(c, Baseline(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Model(c, Baseline(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ModeledWall() != s2.ModeledWall() {
		t.Error("modeled wall time differs across identical runs")
	}
	if s1.ModeledWall() <= 0 {
		t.Errorf("modeled wall time %v not positive", s1.ModeledWall())
	}
	wantNS := s1.Cycles / ModeledClockGHz
	if got := float64(s1.ModeledWall().Nanoseconds()); got < wantNS-1 || got > wantNS+1 {
		t.Errorf("modeled wall = %g ns, want ~%g", got, wantNS)
	}
}

func TestCostVectorCanonical(t *testing.T) {
	base := Baseline()
	if base.Canonical() != Baseline().Canonical() {
		t.Error("canonical rendering not deterministic")
	}
	scaled := base.Apply(Scale{MemRead: 2})
	if scaled.Canonical() == base.Canonical() {
		t.Error("scaled vector renders identically to baseline")
	}
	// Every dimension must appear in the rendering: zero one out and the
	// canonical string must change (a dropped field would alias vectors).
	mutations := []func(*CostVector){
		func(cv *CostVector) { cv.IntOp = 0 },
		func(cv *CostVector) { cv.FloatOp = 0 },
		func(cv *CostVector) { cv.TrigOp = 0 },
		func(cv *CostVector) { cv.SqrtOp = 0 },
		func(cv *CostVector) { cv.MemRead = 0 },
		func(cv *CostVector) { cv.MemWrite = 0 },
		func(cv *CostVector) { cv.StridedRead = 0 },
		func(cv *CostVector) { cv.Branch = 0 },
		func(cv *CostVector) { cv.SyncOp = 0 },
		func(cv *CostVector) { cv.AllocOp = 0 },
		func(cv *CostVector) { cv.AllocByte = 0 },
		func(cv *CostVector) { cv.L1MissRate = 0 },
		func(cv *CostVector) { cv.LLCMissRate = 0 },
		func(cv *CostVector) { cv.StridedL1Rate = 0 },
		func(cv *CostVector) { cv.StridedLLCRate = 0 },
		func(cv *CostVector) { cv.BranchMissRate = 0 },
		func(cv *CostVector) { cv.L1MissPenalty = 0 },
		func(cv *CostVector) { cv.LLCMissPenalty = 0 },
		func(cv *CostVector) { cv.BranchMissPenalty = 0 },
		func(cv *CostVector) { cv.MemFactor = 0 },
	}
	for i, mutate := range mutations {
		cv := Baseline()
		mutate(&cv)
		if cv.Canonical() == base.Canonical() {
			t.Errorf("mutation %d not reflected in canonical rendering", i)
		}
	}
}
