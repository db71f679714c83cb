package buildsys

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fex/internal/toolchain"
	"fex/internal/vfs"
	"fex/internal/workload"
)

// BuildRoot is the directory that receives final binaries, laid out as
// build/<suite>/<benchmark>/<build-type>/<name> (Figure 5 of the paper).
const BuildRoot = "/fex/build"

// InstalledFunc reports whether an installer artifact is present in the
// experiment container; the build system refuses to use compilers that
// were not installed in the setup stage.
type InstalledFunc func(artifact string) (bool, error)

// System is the build subsystem: a registry of layered makefiles plus the
// machinery to resolve them and compile benchmarks into artifacts.
type System struct {
	mu sync.Mutex
	// tree orders writes into the build tree against its removal: Build
	// writes a binary holding it shared, so builds stay parallel, and
	// CleanBuild removes the tree holding it exclusively, so a removal
	// cannot land between a write's parent-directory creation and the
	// write itself.
	tree      sync.RWMutex
	makefiles map[string]*Makefile
	compilers map[string]*toolchain.Compiler
	installed InstalledFunc
	fs        *vfs.FS
	// cache holds built artifacts keyed by suite/bench/type/debug; it is
	// cleared by CleanBuild (the per-experiment rebuild the paper insists
	// on to avoid stale-flag skew).
	cache map[string]*toolchain.Artifact
	// memo is the kernel-execution memo every cached artifact shares, so
	// a configuration executed under one build type is a memo hit under
	// the others; CleanBuild replaces it together with the cache.
	memo *toolchain.ExecMemo
	// builds counts Build invocations over the system's lifetime,
	// including cache hits — the observable "did anything ask for a
	// compile" signal the warm-resume tests pin at zero.
	builds int
	// compiles counts actual compilations (cache misses only) — the
	// observable behind cross-experiment build-artifact sharing: a
	// second experiment whose CleanBuild was elided serves every Build
	// from cache and adds zero compiles.
	compiles int
}

// NewSystem creates a build system writing binaries into fs. The installed
// hook may be nil, in which case every compiler is considered available
// (used by unit tests).
func NewSystem(fs *vfs.FS, installed InstalledFunc) *System {
	sys := &System{
		makefiles: make(map[string]*Makefile),
		compilers: toolchain.Compilers(),
		installed: installed,
		fs:        fs,
		cache:     make(map[string]*toolchain.Artifact),
		memo:      toolchain.NewExecMemo(),
	}
	return sys
}

// AddMakefile registers a parsed makefile. Re-registering a name replaces
// the previous definition (how users override shipped defaults).
func (s *System) AddMakefile(mf *Makefile) error {
	if mf == nil || mf.Name == "" {
		return fmt.Errorf("buildsys: makefile requires a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.makefiles[mf.Name] = mf
	return nil
}

// AddMakefileText parses and registers makefile text.
func (s *System) AddMakefileText(name string, layer Layer, text string) error {
	mf, err := ParseMakefile(name, layer, text)
	if err != nil {
		return err
	}
	return s.AddMakefile(mf)
}

// MakefileSet returns a copy of the makefile registry, by name.
func (s *System) MakefileSet() map[string]*Makefile {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*Makefile, len(s.makefiles))
	for n, mf := range s.makefiles {
		out[n] = mf
	}
	return out
}

// ChangedSince returns the makefiles registered on s that base (a
// MakefileSet) does not hold — a name base lacks, or a later
// registration of a name it has — sorted by name.
func (s *System) ChangedSince(base map[string]*Makefile) []*Makefile {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Makefile
	for n, mf := range s.makefiles {
		if base[n] != mf {
			out = append(out, mf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BuildTypes returns the registered experiment-layer makefile names
// (without the .mk suffix) — the values accepted by the -t flag.
func (s *System) BuildTypes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n, mf := range s.makefiles {
		if mf.Layer == LayerExperiment && strings.HasSuffix(n, ".mk") && n != "common.mk" {
			out = append(out, strings.TrimSuffix(n, ".mk"))
		}
	}
	sort.Strings(out)
	return out
}

// Resolve evaluates the named makefile with the given preset variables
// (e.g. BUILD_TYPE) and returns the final variable environment. Includes
// are followed depth-first in directive order; `Makefile.X` include
// targets resolve to the registered makefile `X.mk`, matching the paper's
// `include Makefile.$(BUILD_TYPE)` idiom.
func (s *System) Resolve(name string, preset map[string]string) (Vars, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vars := make(Vars, len(preset)+8)
	for k, v := range preset {
		vars[k] = v
	}
	seen := make(map[string]bool)
	if err := s.apply(name, vars, seen); err != nil {
		return nil, err
	}
	return vars, nil
}

func (s *System) apply(name string, vars Vars, seen map[string]bool) error {
	if seen[name] {
		return fmt.Errorf("%w: %q included twice", ErrIncludeCycle, name)
	}
	seen[name] = true
	mf, ok := s.makefiles[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMakefile, name)
	}
	for _, d := range mf.Directives {
		switch d.Op {
		case OpInclude:
			target, err := vars.expand(d.Key)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			// `include Makefile.X` refers to the type makefile X.mk.
			if rest, found := strings.CutPrefix(target, "Makefile."); found {
				target = rest + ".mk"
			}
			if err := s.apply(target, vars, seen); err != nil {
				return err
			}
		case OpSet:
			v, err := vars.expand(d.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			vars[d.Key] = v
		case OpAppend:
			v, err := vars.expand(d.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if cur := vars[d.Key]; cur != "" {
				vars[d.Key] = cur + " " + v
			} else {
				vars[d.Key] = v
			}
		}
	}
	return nil
}

// appMakefileName is the registry key of an application-layer makefile.
func appMakefileName(suite, bench string) string {
	return "src/" + suite + "/" + bench + "/Makefile"
}

// RegisterBenchmarks generates default application-layer makefiles for
// every workload in the registry (NAME/SRC plus the type-makefile include
// of §III-A). Custom per-benchmark makefiles can replace them afterwards
// via AddMakefileText.
func (s *System) RegisterBenchmarks(reg *workload.Registry) error {
	for _, suite := range reg.Suites() {
		ws, err := reg.Suite(suite)
		if err != nil {
			return err
		}
		for _, w := range ws {
			text := fmt.Sprintf(
				"NAME := %s\nSRC := %s.c\ninclude Makefile.$(BUILD_TYPE)\nall: $(BUILD)/$(NAME)\n",
				w.Name(), w.Name())
			if err := s.AddMakefileText(appMakefileName(suite, w.Name()), LayerApplication, text); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildKey identifies one artifact in the cache.
func buildKey(suite, bench, buildType string, debug bool) string {
	return fmt.Sprintf("%s/%s/%s/debug=%t", suite, bench, buildType, debug)
}

// Build compiles one benchmark with one build type. It resolves the
// application makefile with BUILD_TYPE preset, verifies the selected
// compiler is installed, invokes the compiler model, and materializes the
// binary under build/<suite>/<bench>/<type>/.
func (s *System) Build(w workload.Workload, buildType string, debug bool) (*toolchain.Artifact, error) {
	key := buildKey(w.Suite(), w.Name(), buildType, debug)
	s.mu.Lock()
	s.builds++
	if a, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return a, nil
	}
	memo := s.memo
	s.mu.Unlock()

	appName := appMakefileName(w.Suite(), w.Name())
	vars, err := s.Resolve(appName, map[string]string{
		"BUILD_TYPE": buildType,
		"BUILD":      fmt.Sprintf("%s/%s/%s/%s", BuildRoot, w.Suite(), w.Name(), buildType),
	})
	if err != nil {
		return nil, fmt.Errorf("build %s/%s [%s]: %w", w.Suite(), w.Name(), buildType, err)
	}

	cc := vars.Get("CC")
	if cc == "" {
		return nil, fmt.Errorf("build %s/%s [%s]: makefiles do not set CC", w.Suite(), w.Name(), buildType)
	}
	comp, ok := s.compilers[cc]
	if !ok {
		return nil, fmt.Errorf("%w: CC=%q", toolchain.ErrUnknownCompiler, cc)
	}
	if s.installed != nil {
		have, err := s.installed(comp.InstallArtifact)
		if err != nil {
			return nil, fmt.Errorf("build %s/%s: check install: %w", w.Suite(), w.Name(), err)
		}
		if !have {
			return nil, fmt.Errorf("%w: %s (run: fex install -n %s)",
				toolchain.ErrNotInstalled, comp.InstallArtifact, comp.InstallArtifact)
		}
	}

	cflags := vars.List("CFLAGS")
	if debug {
		cflags = append(cflags, "-O0", "-g")
	}
	artifact, err := comp.Compile(toolchain.SourceUnit{
		Benchmark: w,
		CFLAGS:    cflags,
		LDFLAGS:   vars.List("LDFLAGS"),
		BuildType: buildType,
		Memo:      memo,
	})
	if err != nil {
		return nil, fmt.Errorf("build %s/%s [%s]: %w", w.Suite(), w.Name(), buildType, err)
	}

	if s.fs != nil {
		binPath := fmt.Sprintf("%s/%s/%s/%s/%s", BuildRoot, w.Suite(), w.Name(), buildType, w.Name())
		content := fmt.Sprintf("#!ELF %s %s\nhash=%s\n", w.Name(), buildType, artifact.BinaryHash)
		s.tree.RLock()
		err := s.fs.WriteFile(binPath, []byte(content), 0o755)
		s.tree.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("build %s/%s: write binary: %w", w.Suite(), w.Name(), err)
		}
	}

	s.mu.Lock()
	s.cache[key] = artifact
	s.compiles++
	s.mu.Unlock()
	return artifact, nil
}

// CleanBuild drops all cached artifacts and their shared execution memo,
// and removes the build tree. The paper mandates a clean rebuild before
// every experiment: "otherwise a mix of old and new compilation flags
// and/or libraries could skew the results". Experiments call this unless
// --no-build is given.
func (s *System) CleanBuild() error {
	s.mu.Lock()
	s.cache = make(map[string]*toolchain.Artifact)
	s.memo = toolchain.NewExecMemo()
	fs := s.fs
	s.mu.Unlock()
	if fs != nil {
		s.tree.Lock()
		err := fs.RemoveAll(BuildRoot)
		s.tree.Unlock()
		if err != nil {
			return fmt.Errorf("clean build tree: %w", err)
		}
	}
	return nil
}

// CachedArtifacts returns the number of artifacts currently cached (used
// by the --no-build ablation tests).
func (s *System) CachedArtifacts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Builds returns how many times Build has been invoked, cache hits
// included. The plan-ahead scheduler promises that a fully-warm resume
// never reaches the build system at all; tests assert it through this
// counter.
func (s *System) Builds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}

// Compiles returns how many Build calls actually compiled (cache
// misses). Cross-experiment artifact sharing is proven through this
// counter: a run served entirely from retained artifacts adds zero.
func (s *System) Compiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compiles
}

// Cached returns the cached artifact for one (workload, build type,
// debug) combination without building, or nil when the combination has
// not been compiled yet. The run planner uses it to probe memo warmth:
// only an already-built artifact can hold memoized executions.
func (s *System) Cached(w workload.Workload, buildType string, debug bool) *toolchain.Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache[buildKey(w.Suite(), w.Name(), buildType, debug)]
}

// DefaultMakefiles returns the makefile set FEX ships: the common layer
// plus compiler- and type-specific experiment-layer makefiles for GCC and
// Clang, native and AddressSanitizer (§III-C: "the current version of the
// framework includes only AddressSanitizer as an example").
func DefaultMakefiles() map[string]string {
	return map[string]string{
		"common.mk": `
# Common layer: parameters applicable to all benchmarks and build types.
CFLAGS := -O2
LDFLAGS :=
`,
		"gcc_native.mk": `
include common.mk
CC := gcc
CXX := g++
`,
		"gcc_asan.mk": `
include gcc_native.mk
CFLAGS += -fsanitize=address
LDFLAGS += -fsanitize=address
`,
		"clang_native.mk": `
include common.mk
CC := clang
CXX := clang++
`,
		"clang_asan.mk": `
include clang_native.mk
CFLAGS += -fsanitize=address
LDFLAGS += -fsanitize=address
`,
	}
}

// InstallDefaults registers the shipped makefiles on a system.
func (s *System) InstallDefaults() error {
	for name, text := range DefaultMakefiles() {
		layer := LayerExperiment
		if name == "common.mk" {
			layer = LayerCommon
		}
		if err := s.AddMakefileText(name, layer, text); err != nil {
			return fmt.Errorf("install default makefile %s: %w", name, err)
		}
	}
	return nil
}
