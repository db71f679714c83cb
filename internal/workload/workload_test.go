package workload

import (
	"errors"
	"testing"
	"testing/quick"
)

type fakeWorkload struct {
	suite, name string
}

func (f fakeWorkload) Name() string                       { return f.name }
func (f fakeWorkload) Suite() string                      { return f.suite }
func (f fakeWorkload) Description() string                { return "fake" }
func (f fakeWorkload) DefaultInput(class SizeClass) Input { return Input{N: 1} }
func (f fakeWorkload) Run(in Input, threads int) (Counters, error) {
	return Counters{IntOps: 1, Checksum: 42}, nil
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(fakeWorkload{"s", "w"}); err != nil {
		t.Fatal(err)
	}
	w, err := r.Lookup("s", "w")
	if err != nil || w.Name() != "w" {
		t.Errorf("lookup: %v, %v", w, err)
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(fakeWorkload{"s", "w"})
	if err := r.Register(fakeWorkload{"s", "w"}); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestRegistryNil(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("expected error for nil workload")
	}
}

func TestRegistryUnknown(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup("nope", "x"); err == nil {
		t.Error("expected unknown suite error")
	}
	_ = r.Register(fakeWorkload{"s", "w"})
	if _, err := r.Lookup("s", "nope"); err == nil {
		t.Error("expected unknown benchmark error")
	}
}

func TestRegistrySuiteSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"c", "a", "b"} {
		_ = r.Register(fakeWorkload{"s", n})
	}
	ws, err := r.Suite("s")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if ws[i].Name() != want {
			t.Errorf("ws[%d] = %s", i, ws[i].Name())
		}
	}
}

func TestRegistrySuitesSorted(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(fakeWorkload{"zeta", "w"})
	_ = r.Register(fakeWorkload{"alpha", "w"})
	suites := r.Suites()
	if len(suites) != 2 || suites[0] != "alpha" {
		t.Errorf("suites %v", suites)
	}
}

func TestValidateThreads(t *testing.T) {
	if _, err := ValidateThreads(0); !errors.Is(err, ErrBadInput) {
		t.Errorf("got %v", err)
	}
	if _, err := ValidateThreads(-1); err == nil {
		t.Error("expected error")
	}
	if _, err := ValidateThreads(2000); err == nil {
		t.Error("expected error for huge count")
	}
	if n, err := ValidateThreads(4); err != nil || n != 4 {
		t.Errorf("got %d, %v", n, err)
	}
}

func TestParseSizeClass(t *testing.T) {
	cases := map[string]SizeClass{
		"test": SizeTest, "small": SizeSmall, "native": SizeNative, "": SizeNative,
	}
	for in, want := range cases {
		got, err := ParseSizeClass(in)
		if err != nil || got != want {
			t.Errorf("ParseSizeClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSizeClass("huge"); err == nil {
		t.Error("expected error")
	}
}

func TestInputGet(t *testing.T) {
	in := Input{Extra: map[string]int{"k": 7}}
	if in.Get("k", 1) != 7 {
		t.Error("Get existing")
	}
	if in.Get("missing", 5) != 5 {
		t.Error("Get default")
	}
}

func TestCountersAddXorsChecksum(t *testing.T) {
	a := Counters{IntOps: 1, Checksum: 0b1100}
	a.Add(Counters{IntOps: 2, Checksum: 0b1010})
	if a.IntOps != 3 {
		t.Errorf("IntOps %d", a.IntOps)
	}
	if a.Checksum != 0b0110 {
		t.Errorf("Checksum %b", a.Checksum)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		n := 1000
		seen := make([]bool, n)
		ParallelFor(n, workers, func(c *Counters, _, lo, hi int) {
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("index %d visited twice", i)
				}
				seen[i] = true
			}
		})
		for i, s := range seen {
			if !s {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
}

func TestParallelForCountersMerge(t *testing.T) {
	total := ParallelFor(100, 4, func(c *Counters, _, lo, hi int) {
		c.IntOps += uint64(hi - lo)
	})
	if total.IntOps != 100 {
		t.Errorf("IntOps = %d", total.IntOps)
	}
	if total.SyncOps == 0 {
		t.Error("expected barrier accounting")
	}
}

func TestParallelForZeroWork(t *testing.T) {
	total := ParallelFor(0, 4, func(c *Counters, _, lo, hi int) {
		t.Error("body called for empty range")
	})
	if total.IntOps != 0 {
		t.Error("unexpected work")
	}
}

func TestParallelForMoreWorkersThanWork(t *testing.T) {
	total := ParallelFor(3, 100, func(c *Counters, _, lo, hi int) {
		c.IntOps++
	})
	if total.IntOps == 0 {
		t.Error("no work done")
	}
}

func TestPRNGDeterministic(t *testing.T) {
	a := NewPRNG(7)
	b := NewPRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPRNGZeroSeedRemapped(t *testing.T) {
	p := NewPRNG(0)
	if p.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestPRNGShardIndependent(t *testing.T) {
	base := NewPRNG(1)
	s0 := base.Shard(0)
	s1 := base.Shard(1)
	if s0.Uint64() == s1.Uint64() {
		t.Error("shards produce identical streams")
	}
}

func TestPRNGIntnBounds(t *testing.T) {
	p := NewPRNG(3)
	for i := 0; i < 1000; i++ {
		v := p.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if p.Intn(0) != 0 {
		t.Error("Intn(0) should be 0")
	}
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(5)
	for i := 0; i < 1000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestMixOrderIndependentUnderXor(t *testing.T) {
	a := Mix(0, 111) ^ Mix(0, 222)
	b := Mix(0, 222) ^ Mix(0, 111)
	if a != b {
		t.Error("xor of mixes is order dependent")
	}
}

func TestNeedsDryRun(t *testing.T) {
	if NeedsDryRun(fakeWorkload{}) {
		t.Error("plain workload should not need dry run")
	}
}

func TestQuickParallelForDeterministicCounters(t *testing.T) {
	prop := func(nRaw, w1Raw, w2Raw uint8) bool {
		n := int(nRaw)%500 + 1
		w1 := int(w1Raw)%8 + 1
		w2 := int(w2Raw)%8 + 1
		run := func(workers int) Counters {
			return ParallelFor(n, workers, func(c *Counters, _, lo, hi int) {
				for i := lo; i < hi; i++ {
					c.IntOps++
					c.Checksum = Mix(c.Checksum, uint64(i))
				}
			})
		}
		a, b := run(w1), run(w2)
		return a.IntOps == b.IntOps && a.Checksum == b.Checksum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
