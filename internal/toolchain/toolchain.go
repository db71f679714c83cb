// Package toolchain models the compilers and build types FEX composes:
// GCC 6.1 and Clang/LLVM 3.8.0, each in native and AddressSanitizer
// configurations, plus debug variants.
//
// A Compiler turns a source unit (a benchmark kernel plus build flags)
// into an Artifact: an executable whose performance behaviour is a
// deterministic CostVector (how many cycles each operation class costs
// under that compiler's codegen) and whose security behaviour is a
// SecurityProfile (stack canaries, segment layout, redzones, …).
//
// The cost vectors are calibrated against the published shapes:
//
//   - Clang 3.8 vs GCC 6.1 native: slightly slower overall, with the
//     largest gap on transcendental-heavy kernels — Figure 6 shows Clang
//     worst on FFT ("especially bad with operations on matrices, as
//     represented by FFT").
//   - AddressSanitizer: ~2× slowdown on memory-heavy code and ~3× resident
//     memory (shadow + redzones + quarantine), per the ASan paper.
//   - Debug builds (-O0): a uniform several-fold slowdown.
//
// The security profiles are calibrated against Table II: with the paper's
// deliberately insecure configuration (no ASLR, no canaries, executable
// stack), Clang's smarter layout of objects in the BSS and Data segments
// blocks indirect attacks through those buffers, roughly halving
// successful RIPE attacks relative to GCC.
package toolchain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"fex/internal/measure"
	"fex/internal/workload"
)

// Common errors.
var (
	// ErrUnknownCompiler reports a CC value with no registered compiler.
	ErrUnknownCompiler = errors.New("toolchain: unknown compiler")
	// ErrUnsupportedFlag reports a compile flag the compiler rejects.
	ErrUnsupportedFlag = errors.New("toolchain: unsupported flag")
	// ErrNotInstalled reports a compiler that is not installed in the
	// experiment container.
	ErrNotInstalled = errors.New("toolchain: compiler not installed")
)

// SecurityProfile captures the defense posture a build configuration gives
// a binary; the RIPE testbed evaluates attacks against it.
type SecurityProfile struct {
	// StackCanary guards stack buffers (disabled in the paper's config).
	StackCanary bool
	// NonExecStack marks the stack non-executable (disabled in the paper's
	// config: "enabled executable stack").
	NonExecStack bool
	// ASLR randomizes the layout (disabled in the paper's config).
	ASLR bool
	// HardenedSegmentLayout is Clang's smarter object layout in BSS/Data
	// segments, which "prevents indirect attacks via buffers in BSS and
	// Data segments" (Table II analysis).
	HardenedSegmentLayout bool
	// Redzones are ASan-style poisoned zones around objects: they stop
	// contiguous overflows in all segments.
	Redzones bool
	// FortifiedLibc hardens libc string/memory functions.
	FortifiedLibc bool
}

// Compiler models one compiler's codegen quality and capabilities.
type Compiler struct {
	// Name is the CC value ("gcc", "clang").
	Name string
	// Version is the pinned version string.
	Version string
	// InstallArtifact is the installer artifact that provides the compiler
	// ("gcc-6.1"); the build system refuses to use a compiler whose
	// artifact is not installed.
	InstallArtifact string
	// codegen is this compiler's cost scaling relative to the baseline.
	codegen measure.Scale
	// security is the native security posture of binaries it emits.
	security SecurityProfile
	// supportsASan reports -fsanitize=address support.
	supportsASan bool
}

// GCC returns the GCC 6.1 model — the baseline of every comparison.
func GCC() *Compiler {
	return &Compiler{
		Name:            "gcc",
		Version:         "6.1",
		InstallArtifact: "gcc-6.1",
		codegen:         measure.Scale{}, // identity: GCC native is the baseline
		security: SecurityProfile{
			// The paper's deliberately insecure configuration.
			StackCanary: false, NonExecStack: false, ASLR: false,
			HardenedSegmentLayout: false,
		},
		supportsASan: true,
	}
}

// Clang returns the Clang/LLVM 3.8.0 model.
func Clang() *Compiler {
	return &Compiler{
		Name:            "clang",
		Version:         "3.8.0",
		InstallArtifact: "clang-3.8.0",
		codegen: measure.Scale{
			// Calibrated to Figure 6: slightly worse scalar and memory
			// codegen, much worse transcendental lowering (FFT's twiddle
			// factors), slightly worse strided-access scheduling.
			IntOp:       1.06,
			FloatOp:     1.12,
			TrigOp:      2.1,
			SqrtOp:      1.05,
			MemRead:     1.03,
			MemWrite:    1.03,
			StridedRead: 1.10,
			Branch:      1.02,
		},
		security: SecurityProfile{
			StackCanary: false, NonExecStack: false, ASLR: false,
			// Clang's BSS/Data object layout blocks indirect attacks
			// through those segments (the 2× drop in Table II).
			HardenedSegmentLayout: true,
		},
		supportsASan: true,
	}
}

// Compilers returns the registered compiler models keyed by CC name.
func Compilers() map[string]*Compiler {
	return map[string]*Compiler{
		"gcc":   GCC(),
		"clang": Clang(),
	}
}

// asanScale is the AddressSanitizer overhead applied on top of a
// compiler's vector: every memory access gains a shadow check, allocations
// gain redzone/quarantine bookkeeping, and resident memory roughly triples.
var asanScale = measure.Scale{
	MemRead:     2.1,
	MemWrite:    2.4,
	StridedRead: 1.6,
	IntOp:       1.15,
	Branch:      1.3,
	AllocOp:     3.5,
	AllocByte:   1.5,
	L1MissRate:  1.4, // shadow memory pollutes the cache
	MemFactor:   3.1,
}

// debugScale is the -O0 penalty.
var debugScale = measure.Scale{
	IntOp: 3.5, FloatOp: 3.0, TrigOp: 1.2,
	MemRead: 2.0, MemWrite: 2.0, Branch: 2.5,
}

// CalibrationCanonical renders the full cost-model calibration surface as
// a canonical string: for every registered compiler, the derived native,
// ASan, and debug cost vectors. The result store folds it into every cell
// fingerprint, so recalibrating *any* scale — the baseline, a compiler's
// codegen, the sanitizer or debug penalties — invalidates stored
// measurements wholesale instead of replaying numbers taken under a
// different model.
func CalibrationCanonical() string {
	compilers := Compilers()
	names := make([]string, 0, len(compilers))
	for n := range compilers {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		c := compilers[n]
		native := measure.Baseline().Apply(c.codegen)
		fmt.Fprintf(&sb, "%s-%s native:%s\n", c.Name, c.Version, native.Canonical())
		fmt.Fprintf(&sb, "%s-%s asan:%s\n", c.Name, c.Version, native.Apply(asanScale).Canonical())
		fmt.Fprintf(&sb, "%s-%s debug:%s\n", c.Name, c.Version, native.Apply(debugScale).Canonical())
	}
	return sb.String()
}

// SourceUnit is what the build system hands a compiler: one benchmark's
// sources plus the fully resolved build variables.
type SourceUnit struct {
	// Benchmark is the kernel to compile.
	Benchmark workload.Workload
	// CFLAGS and LDFLAGS are the resolved flag lists.
	CFLAGS  []string
	LDFLAGS []string
	// BuildType is the experiment-layer name ("gcc_native", "gcc_asan", …).
	BuildType string
	// Memo is the execution memo the artifact shares with every other
	// artifact of its build system; nil gives the artifact a private one.
	Memo *ExecMemo
}

// Artifact is a compiled benchmark binary: the executable the run step
// invokes. Execution applies the artifact's cost vector to the kernel's
// counters, yielding machine-independent measurements.
type Artifact struct {
	// Benchmark and BuildType identify the artifact.
	Benchmark workload.Workload
	BuildType string
	// Compiler records which compiler produced it.
	Compiler string
	Version  string
	// Cost is the resolved execution cost model.
	Cost measure.CostVector
	// Security is the resolved defense posture.
	Security SecurityProfile
	// Debug marks -O0 builds.
	Debug bool
	// BinaryHash is a deterministic digest of everything that influenced
	// codegen — two builds with identical inputs produce identical hashes
	// (the reproducibility property).
	BinaryHash string
	// SizeBytes is the modeled binary size.
	SizeBytes int64

	// memo is this benchmark's slot in the execution memo shared with
	// every sibling artifact (see Execute); execs counts the kernel
	// executions this artifact performed to fill it.
	memo  *benchMemo
	execs atomic.Int64
}

// Compile builds one source unit. It validates flags, composes the cost
// vector (baseline × compiler codegen × sanitizer × debug), derives the
// security profile, and stamps a deterministic binary hash.
func (c *Compiler) Compile(unit SourceUnit) (*Artifact, error) {
	if unit.Benchmark == nil {
		return nil, errors.New("toolchain: compile without benchmark")
	}
	cost := measure.Baseline().Apply(c.codegen)
	sec := c.security
	debug := false
	asan := false

	for _, f := range unit.CFLAGS {
		switch {
		case f == "-O2" || f == "-O3" || f == "":
			// Optimization levels beyond -O2 are modeled identically.
		case f == "-O0" || f == "-g":
			debug = true
		case f == "-fsanitize=address":
			if !c.supportsASan {
				return nil, fmt.Errorf("%w: %s does not support %s", ErrUnsupportedFlag, c.Name, f)
			}
			asan = true
		case f == "-fstack-protector" || f == "-fstack-protector-all":
			sec.StackCanary = true
		case f == "-z,noexecstack" || f == "-Wl,-z,noexecstack":
			sec.NonExecStack = true
		case f == "-D_FORTIFY_SOURCE=2":
			sec.FortifiedLibc = true
		case strings.HasPrefix(f, "-f") || strings.HasPrefix(f, "-W") ||
			strings.HasPrefix(f, "-D") || strings.HasPrefix(f, "-I") ||
			strings.HasPrefix(f, "-std="):
			// Accepted but performance-neutral in the model.
		default:
			return nil, fmt.Errorf("%w: %s rejects %q", ErrUnsupportedFlag, c.Name, f)
		}
	}
	for _, f := range unit.LDFLAGS {
		if f == "-fsanitize=address" {
			asan = true
			continue
		}
		if strings.HasPrefix(f, "-l") || strings.HasPrefix(f, "-L") || strings.HasPrefix(f, "-Wl,") || f == "-static" {
			continue
		}
		return nil, fmt.Errorf("%w: linker rejects %q", ErrUnsupportedFlag, f)
	}

	if asan {
		cost = cost.Apply(asanScale)
		sec.Redzones = true
	}
	if debug {
		cost = cost.Apply(debugScale)
	}

	h := sha256.New()
	fmt.Fprintf(h, "cc:%s-%s\n", c.Name, c.Version)
	fmt.Fprintf(h, "bench:%s/%s\n", unit.Benchmark.Suite(), unit.Benchmark.Name())
	flags := append([]string(nil), unit.CFLAGS...)
	sort.Strings(flags)
	fmt.Fprintf(h, "cflags:%s\n", strings.Join(flags, " "))
	ldflags := append([]string(nil), unit.LDFLAGS...)
	sort.Strings(ldflags)
	fmt.Fprintf(h, "ldflags:%s\n", strings.Join(ldflags, " "))

	size := int64(180 * 1024) // base text+data
	if asan {
		size += 420 * 1024 // ASan runtime
	}
	if debug {
		size += 250 * 1024 // debug info
	}

	memo := unit.Memo
	if memo == nil {
		memo = NewExecMemo()
	}
	return &Artifact{
		Benchmark:  unit.Benchmark,
		BuildType:  unit.BuildType,
		Compiler:   c.Name,
		Version:    c.Version,
		Cost:       cost,
		Security:   sec,
		Debug:      debug,
		BinaryHash: hex.EncodeToString(h.Sum(nil)),
		SizeBytes:  size,
		memo:       memo.benchmark(unit.Benchmark.Suite() + "/" + unit.Benchmark.Name()),
	}, nil
}

// Execute runs the artifact's kernel with the given input and thread count
// and returns the sample: modeled counters under this artifact's cost
// vector (wall time is derived from them, see measure.Sample.ModeledWall).
//
// Execution is memoized in the ExecMemo shared by the artifact's build
// system: kernels are deterministic by contract (same input + threads ⇒
// same workload.Counters) and never see the build type, so a repeated
// (benchmark, input, threads) configuration — every repetition after the
// first, every thread-sweep revisit, and the same cell under every other
// build type — skips the kernel and re-derives its sample from the
// cached counters under this artifact's own Cost, an O(1) model
// evaluation. Concurrent cold callers of one configuration run the
// kernel once; the others wait for its counters. Callers that need the
// kernel physically re-executed every time (the -no-memo determinism
// ablation) use ExecuteUncached.
func (a *Artifact) Execute(in workload.Input, threads int) (measure.Sample, error) {
	counters, claim := a.memo.acquire(in, threads)
	if claim != nil {
		var err error
		if counters, err = a.runClaim(claim, in, threads); err != nil {
			return measure.Sample{}, fmt.Errorf("execute %s/%s [%s]: %w",
				a.Benchmark.Suite(), a.Benchmark.Name(), a.BuildType, err)
		}
	}
	return measure.Model(counters, a.Cost, threads)
}

// runClaim executes the kernel for a configuration this artifact claimed
// in the memo and settles the claim — also when the kernel panics, so
// waiters never hang on it.
func (a *Artifact) runClaim(claim *memoEntry, in workload.Input, threads int) (counters workload.Counters, err error) {
	ok := false
	defer func() { a.memo.settle(claim, counters, ok) }()
	counters, err = a.Benchmark.Run(in, threads)
	if ok = err == nil; ok {
		a.execs.Add(1)
	}
	return counters, err
}

// ExecuteUncached runs the kernel unconditionally, bypassing and not
// populating the memo — the -no-memo execution path.
func (a *Artifact) ExecuteUncached(in workload.Input, threads int) (measure.Sample, error) {
	counters, err := a.Benchmark.Run(in, threads)
	if err != nil {
		return measure.Sample{}, fmt.Errorf("execute %s/%s [%s]: %w",
			a.Benchmark.Suite(), a.Benchmark.Name(), a.BuildType, err)
	}
	return measure.Model(counters, a.Cost, threads)
}

// MemoKeys returns the canonical keys of the cached executions of the
// artifact's benchmark, sorted — introspection for tests and tooling.
func (a *Artifact) MemoKeys() []string {
	return a.memo.keys()
}

// Memoized reports whether an execution of (in, threads) of the
// artifact's benchmark is already cached in the shared memo — by this
// artifact or any sibling build type — the plan-ahead scheduler's warmth
// probe, answered without running anything.
func (a *Artifact) Memoized(in workload.Input, threads int) bool {
	return a.memo.cached(in, threads)
}

// MemoLen returns the number of kernel executions this artifact
// performed to fill the memo. Summed over a build system's artifacts it
// is the number of distinct configurations executed.
func (a *Artifact) MemoLen() int {
	return int(a.execs.Load())
}
