package buildsys

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"fex/internal/toolchain"
	"fex/internal/vfs"
	"fex/internal/workload"
	"fex/internal/workload/splash"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem(vfs.New(), nil)
	if err := sys.InstallDefaults(); err != nil {
		t.Fatal(err)
	}
	reg := workload.NewRegistry()
	if err := splash.Register(reg); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterBenchmarks(reg); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestParseMakefileDirectives(t *testing.T) {
	mf, err := ParseMakefile("m.mk", LayerExperiment, `
# a comment
include common.mk
CC := gcc
CFLAGS += -fsanitize=address  ;; trailing comment
all: $(BUILD)/$(NAME)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Directives) != 3 {
		t.Fatalf("directives: %+v", mf.Directives)
	}
	if mf.Directives[0].Op != OpInclude || mf.Directives[0].Key != "common.mk" {
		t.Errorf("include parsed as %+v", mf.Directives[0])
	}
	if mf.Directives[1].Op != OpSet || mf.Directives[1].Key != "CC" || mf.Directives[1].Value != "gcc" {
		t.Errorf("set parsed as %+v", mf.Directives[1])
	}
	if mf.Directives[2].Op != OpAppend || mf.Directives[2].Value != "-fsanitize=address" {
		t.Errorf("append parsed as %+v", mf.Directives[2])
	}
}

func TestParseMakefileErrors(t *testing.T) {
	if _, err := ParseMakefile("m", LayerCommon, "include \n"); !errors.Is(err, ErrParse) {
		t.Errorf("got %v", err)
	}
	if _, err := ParseMakefile("m", LayerCommon, "garbage line\n"); !errors.Is(err, ErrParse) {
		t.Errorf("got %v", err)
	}
	if _, err := ParseMakefile("m", LayerCommon, ":= noname\n"); !errors.Is(err, ErrParse) {
		t.Errorf("got %v", err)
	}
}

func TestResolveIncludeChain(t *testing.T) {
	sys := testSystem(t)
	vars, err := sys.Resolve("gcc_asan.mk", nil)
	if err != nil {
		t.Fatal(err)
	}
	// gcc_asan includes gcc_native includes common: CC set, CFLAGS appended.
	if vars.Get("CC") != "gcc" {
		t.Errorf("CC = %q", vars.Get("CC"))
	}
	if vars.Get("CFLAGS") != "-O2 -fsanitize=address" {
		t.Errorf("CFLAGS = %q", vars.Get("CFLAGS"))
	}
	if got := vars.List("CFLAGS"); len(got) != 2 {
		t.Errorf("CFLAGS list = %v", got)
	}
}

func TestResolveVariableExpansion(t *testing.T) {
	sys := testSystem(t)
	err := sys.AddMakefileText("exp.mk", LayerExperiment, `
A := hello
B := $(A)-world
`)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := sys.Resolve("exp.mk", nil)
	if err != nil {
		t.Fatal(err)
	}
	if vars.Get("B") != "hello-world" {
		t.Errorf("B = %q", vars.Get("B"))
	}
}

func TestResolveBuildTypeInclude(t *testing.T) {
	// The paper's application-makefile idiom:
	// include Makefile.$(BUILD_TYPE).
	sys := testSystem(t)
	vars, err := sys.Resolve("src/splash/fft/Makefile", map[string]string{"BUILD_TYPE": "clang_native"})
	if err != nil {
		t.Fatal(err)
	}
	if vars.Get("CC") != "clang" {
		t.Errorf("CC = %q", vars.Get("CC"))
	}
	if vars.Get("NAME") != "fft" {
		t.Errorf("NAME = %q", vars.Get("NAME"))
	}
}

func TestResolveUnknownMakefile(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Resolve("missing.mk", nil); !errors.Is(err, ErrUnknownMakefile) {
		t.Errorf("got %v", err)
	}
}

func TestResolveIncludeCycle(t *testing.T) {
	sys := testSystem(t)
	_ = sys.AddMakefileText("a.mk", LayerExperiment, "include b.mk\n")
	_ = sys.AddMakefileText("b.mk", LayerExperiment, "include a.mk\n")
	if _, err := sys.Resolve("a.mk", nil); !errors.Is(err, ErrIncludeCycle) {
		t.Errorf("got %v", err)
	}
}

func TestBuildTypes(t *testing.T) {
	sys := testSystem(t)
	types := sys.BuildTypes()
	want := []string{"clang_asan", "clang_native", "gcc_asan", "gcc_native"}
	if len(types) != len(want) {
		t.Fatalf("types = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("types[%d] = %q, want %q", i, types[i], want[i])
		}
	}
}

func TestBuildProducesArtifact(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.Build(splash.FFT{}, "gcc_native", false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Compiler != "gcc" || a.BuildType != "gcc_native" {
		t.Errorf("artifact %+v", a)
	}
}

func TestBuildWritesBinaryToBuildDir(t *testing.T) {
	fsys := vfs.New()
	sys := NewSystem(fsys, nil)
	_ = sys.InstallDefaults()
	reg := workload.NewRegistry()
	_ = splash.Register(reg)
	_ = sys.RegisterBenchmarks(reg)
	if _, err := sys.Build(splash.FFT{}, "gcc_asan", false); err != nil {
		t.Fatal(err)
	}
	// Figure 5's layout: build/<suite>/<bench>/<type>/<bench>.
	path := BuildRoot + "/splash/fft/gcc_asan/fft"
	if !fsys.Exists(path) {
		t.Errorf("binary missing at %s", path)
	}
}

func TestBuildASanType(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.Build(splash.FFT{}, "gcc_asan", false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Security.Redzones {
		t.Error("gcc_asan artifact lacks redzones")
	}
}

func TestBuildDebug(t *testing.T) {
	sys := testSystem(t)
	a, err := sys.Build(splash.FFT{}, "gcc_native", true)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Debug {
		t.Error("debug build not marked")
	}
}

func TestBuildCaches(t *testing.T) {
	sys := testSystem(t)
	a1, err := sys.Build(splash.FFT{}, "gcc_native", false)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sys.Build(splash.FFT{}, "gcc_native", false)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("expected cached artifact pointer")
	}
	if sys.CachedArtifacts() != 1 {
		t.Errorf("cache size %d", sys.CachedArtifacts())
	}
}

func TestCleanBuildDropsCacheAndTree(t *testing.T) {
	fsys := vfs.New()
	sys := NewSystem(fsys, nil)
	_ = sys.InstallDefaults()
	reg := workload.NewRegistry()
	_ = splash.Register(reg)
	_ = sys.RegisterBenchmarks(reg)
	if _, err := sys.Build(splash.FFT{}, "gcc_native", false); err != nil {
		t.Fatal(err)
	}
	if err := sys.CleanBuild(); err != nil {
		t.Fatal(err)
	}
	if sys.CachedArtifacts() != 0 {
		t.Error("cache not cleared")
	}
	if fsys.Exists(BuildRoot) {
		t.Error("build tree not removed")
	}
}

// countingWorkload counts physical kernel executions.
type countingWorkload struct {
	workload.Workload
	runs *atomic.Int64
}

func (c countingWorkload) Run(in workload.Input, threads int) (workload.Counters, error) {
	c.runs.Add(1)
	return c.Workload.Run(in, threads)
}

// TestExecMemoScopedToCleanBuild pins the shared execution memo's
// lifetime: every build type of the system shares it, and CleanBuild
// drops it with the artifacts, so the next execution runs the kernel
// again.
func TestExecMemoScopedToCleanBuild(t *testing.T) {
	sys := testSystem(t)
	var runs atomic.Int64
	w := countingWorkload{Workload: splash.FFT{}, runs: &runs}
	in := w.DefaultInput(workload.SizeTest)
	execute := func(buildType string) {
		t.Helper()
		a, err := sys.Build(w, buildType, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Execute(in, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, bt := range []string{"gcc_native", "clang_asan"} {
		execute(bt)
	}
	if runs.Load() != 1 {
		t.Fatalf("two build types ran the kernel %d times, want 1", runs.Load())
	}
	if err := sys.CleanBuild(); err != nil {
		t.Fatal(err)
	}
	execute("gcc_native")
	if runs.Load() != 2 {
		t.Errorf("execution after CleanBuild ran %d kernels in total, want 2", runs.Load())
	}
}

// TestBuildRacesCleanBuild runs Build against concurrent CleanBuild
// calls; under -race it proves Build reads the cache and the memo it
// compiles against under the system's lock.
func TestBuildRacesCleanBuild(t *testing.T) {
	sys := testSystem(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := sys.CleanBuild(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := sys.Build(splash.FFT{}, "gcc_native", false); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestBuildRequiresInstalledCompiler(t *testing.T) {
	sys := NewSystem(vfs.New(), func(artifact string) (bool, error) {
		return false, nil // nothing installed
	})
	_ = sys.InstallDefaults()
	reg := workload.NewRegistry()
	_ = splash.Register(reg)
	_ = sys.RegisterBenchmarks(reg)
	_, err := sys.Build(splash.FFT{}, "gcc_native", false)
	if !errors.Is(err, toolchain.ErrNotInstalled) {
		t.Errorf("got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "fex install") {
		t.Errorf("error should hint at the install command: %v", err)
	}
}

func TestBuildUnknownType(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Build(splash.FFT{}, "tcc_native", false); !errors.Is(err, ErrUnknownMakefile) {
		t.Errorf("got %v", err)
	}
}

func TestCustomAppMakefileOverride(t *testing.T) {
	sys := testSystem(t)
	// A user replaces the generated fft makefile with one forcing ASan
	// regardless of the requested type's flags.
	err := sys.AddMakefileText("src/splash/fft/Makefile", LayerApplication, `
NAME := fft
include Makefile.$(BUILD_TYPE)
CFLAGS += -fsanitize=address
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Build(splash.FFT{}, "gcc_native", false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Security.Redzones {
		t.Error("application-layer CFLAGS append ignored")
	}
}

func TestLayersComposeIndependently(t *testing.T) {
	// Figure 2's property: any application × any build configuration.
	sys := testSystem(t)
	reg := workload.NewRegistry()
	_ = splash.Register(reg)
	ws, _ := reg.Suite("splash")
	for _, w := range ws[:3] {
		for _, bt := range sys.BuildTypes() {
			if _, err := sys.Build(w, bt, false); err != nil {
				t.Errorf("build %s with %s: %v", w.Name(), bt, err)
			}
		}
	}
}
