package toolchain

import (
	"errors"
	"strings"
	"testing"

	"fex/internal/measure"
	"fex/internal/workload"
	"fex/internal/workload/splash"
)

func compileFFT(t *testing.T, c *Compiler, cflags, ldflags []string) *Artifact {
	t.Helper()
	a, err := c.Compile(SourceUnit{
		Benchmark: splash.FFT{},
		CFLAGS:    cflags,
		LDFLAGS:   ldflags,
		BuildType: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGCCNativeIsBaseline(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2"}, nil)
	base := measure.Baseline()
	if a.Cost != base {
		t.Errorf("gcc native cost %+v != baseline", a.Cost)
	}
}

func TestClangSlowerOnTranscendentals(t *testing.T) {
	g := compileFFT(t, GCC(), []string{"-O2"}, nil)
	c := compileFFT(t, Clang(), []string{"-O2"}, nil)
	if c.Cost.TrigOp <= g.Cost.TrigOp*1.5 {
		t.Errorf("clang TrigOp %v not clearly slower than gcc %v", c.Cost.TrigOp, g.Cost.TrigOp)
	}
	// But sqrt lowering is comparable (hardware instruction on both).
	if c.Cost.SqrtOp > g.Cost.SqrtOp*1.2 {
		t.Errorf("clang SqrtOp %v too far from gcc %v", c.Cost.SqrtOp, g.Cost.SqrtOp)
	}
}

func TestASanAddsOverheadAndRedzones(t *testing.T) {
	native := compileFFT(t, GCC(), []string{"-O2"}, nil)
	asan := compileFFT(t, GCC(), []string{"-O2", "-fsanitize=address"}, []string{"-fsanitize=address"})
	if asan.Cost.MemRead <= native.Cost.MemRead {
		t.Error("ASan did not increase memory access cost")
	}
	if asan.Cost.MemFactor < 2.5 {
		t.Errorf("ASan MemFactor %v, want ~3x", asan.Cost.MemFactor)
	}
	if !asan.Security.Redzones {
		t.Error("ASan build lacks redzones")
	}
	if native.Security.Redzones {
		t.Error("native build has redzones")
	}
}

func TestDebugBuildSlower(t *testing.T) {
	rel := compileFFT(t, GCC(), []string{"-O2"}, nil)
	dbg := compileFFT(t, GCC(), []string{"-O0", "-g"}, nil)
	if !dbg.Debug {
		t.Error("debug flag not detected")
	}
	if dbg.Cost.IntOp <= rel.Cost.IntOp*2 {
		t.Errorf("debug IntOp %v not clearly slower", dbg.Cost.IntOp)
	}
}

func TestSecurityFlags(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2", "-fstack-protector", "-D_FORTIFY_SOURCE=2"}, nil)
	if !a.Security.StackCanary || !a.Security.FortifiedLibc {
		t.Errorf("security profile %+v", a.Security)
	}
}

func TestClangHardenedLayout(t *testing.T) {
	g := compileFFT(t, GCC(), nil, nil)
	c := compileFFT(t, Clang(), nil, nil)
	if g.Security.HardenedSegmentLayout {
		t.Error("gcc should not have hardened segment layout")
	}
	if !c.Security.HardenedSegmentLayout {
		t.Error("clang should have hardened segment layout")
	}
}

func TestUnsupportedFlagRejected(t *testing.T) {
	_, err := GCC().Compile(SourceUnit{
		Benchmark: splash.FFT{},
		CFLAGS:    []string{"--totally-bogus-flag"},
	})
	if !errors.Is(err, ErrUnsupportedFlag) {
		t.Errorf("got %v", err)
	}
}

func TestUnsupportedLinkerFlagRejected(t *testing.T) {
	_, err := GCC().Compile(SourceUnit{
		Benchmark: splash.FFT{},
		LDFLAGS:   []string{"bogus"},
	})
	if !errors.Is(err, ErrUnsupportedFlag) {
		t.Errorf("got %v", err)
	}
}

func TestCompileWithoutBenchmark(t *testing.T) {
	if _, err := GCC().Compile(SourceUnit{}); err == nil {
		t.Error("expected error")
	}
}

func TestBinaryHashDeterministic(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2"}, nil)
	b := compileFFT(t, GCC(), []string{"-O2"}, nil)
	if a.BinaryHash != b.BinaryHash {
		t.Error("identical builds produced different hashes")
	}
}

func TestBinaryHashSensitivity(t *testing.T) {
	base := compileFFT(t, GCC(), []string{"-O2"}, nil)
	cases := map[string]*Artifact{
		"different compiler": compileFFT(t, Clang(), []string{"-O2"}, nil),
		"different flags":    compileFFT(t, GCC(), []string{"-O2", "-fsanitize=address"}, nil),
	}
	for name, a := range cases {
		if a.BinaryHash == base.BinaryHash {
			t.Errorf("%s: hash collision", name)
		}
	}
	lu, err := GCC().Compile(SourceUnit{Benchmark: splash.LU{}, CFLAGS: []string{"-O2"}})
	if err != nil {
		t.Fatal(err)
	}
	if lu.BinaryHash == base.BinaryHash {
		t.Error("different benchmark: hash collision")
	}
}

func TestBinarySizeGrowsWithInstrumentation(t *testing.T) {
	native := compileFFT(t, GCC(), []string{"-O2"}, nil)
	asan := compileFFT(t, GCC(), []string{"-fsanitize=address"}, nil)
	dbg := compileFFT(t, GCC(), []string{"-O0"}, nil)
	if asan.SizeBytes <= native.SizeBytes {
		t.Error("ASan build not larger")
	}
	if dbg.SizeBytes <= native.SizeBytes {
		t.Error("debug build not larger")
	}
}

func TestExecuteProducesSample(t *testing.T) {
	a := compileFFT(t, GCC(), []string{"-O2"}, nil)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	s, err := a.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles <= 0 || s.Instructions <= 0 || s.Checksum == 0 {
		t.Errorf("sample %+v", s)
	}
	if s.ModeledWall() <= 0 {
		t.Error("no modeled wall time")
	}
}

func TestExecuteClangCostsMoreCycles(t *testing.T) {
	g := compileFFT(t, GCC(), []string{"-O2"}, nil)
	c := compileFFT(t, Clang(), []string{"-O2"}, nil)
	in := splash.FFT{}.DefaultInput(workload.SizeTest)
	gs, err := g.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := c.Execute(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cs.Cycles / gs.Cycles
	if ratio < 1.3 || ratio > 2.5 {
		t.Errorf("clang/gcc FFT cycle ratio %v, want the Figure 6 gap (1.3-2.5)", ratio)
	}
	if gs.Checksum != cs.Checksum {
		t.Error("builds computed different results")
	}
}

func TestExecuteBadInput(t *testing.T) {
	a := compileFFT(t, GCC(), nil, nil)
	if _, err := a.Execute(workload.Input{N: 3}, 1); err == nil {
		t.Error("expected error for non-power-of-two FFT")
	}
}

func TestCompilersRegistry(t *testing.T) {
	m := Compilers()
	for _, name := range []string{"gcc", "clang"} {
		c, ok := m[name]
		if !ok {
			t.Errorf("missing compiler %s", name)
			continue
		}
		if c.InstallArtifact == "" {
			t.Errorf("%s has no install artifact", name)
		}
	}
}

// TestCalibrationCanonical pins the property the result store relies on:
// the rendering is deterministic, and every calibration surface — each
// compiler's codegen scale, the sanitizer scale, the debug scale — is
// reflected in it, so recalibration cannot alias stored measurements.
func TestCalibrationCanonical(t *testing.T) {
	base := CalibrationCanonical()
	if base != CalibrationCanonical() {
		t.Fatal("calibration rendering not deterministic")
	}
	for _, want := range []string{"gcc-6.1 native:", "gcc-6.1 asan:", "gcc-6.1 debug:", "clang-3.8.0 native:"} {
		if !strings.Contains(base, want) {
			t.Errorf("calibration rendering missing %q", want)
		}
	}
	// The three derived vectors of one compiler must all differ: asan and
	// debug scales are part of the surface, not just native codegen.
	lines := strings.Split(strings.TrimSpace(base), "\n")
	seen := map[string]string{}
	for _, l := range lines {
		name, vec, ok := strings.Cut(l, ":")
		if !ok {
			t.Fatalf("malformed calibration line %q", l)
		}
		for prev, prevVec := range seen {
			if prevVec == vec {
				t.Errorf("calibration vectors alias: %s == %s", name, prev)
			}
		}
		seen[name] = vec
	}
}
