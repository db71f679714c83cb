// Package installer implements FEX's experiment-setup stage (§II-A).
//
// The shipped image contains only benchmark sources and scripts; the actual
// dependencies — compilers to build with, shared libraries, additional
// tools and benchmarks — are fetched and installed at setup time. The paper
// gives two reasons: a fully pre-installed image would be ~17 GB, and users
// should install exactly the versions their experiment needs (package
// managers can't be trusted for that, because repository versions drift
// over time and hinder reproducibility).
//
// The three setup steps of Figure 1 map onto artifact kinds:
//
//   - KindCompiler   — "Install compilers" (gcc-6.1, clang-3.8.0)
//   - KindDependency — "Install dependencies" (gettext for PARSEC, input files)
//   - KindBenchmark  — "Install additional benchmarks" (apache, nginx, memcached)
//
// A Repository stands in for the Internet: it serves versioned,
// content-hashed artifacts. An Installer is bound to a container; it
// resolves transitive dependencies, verifies content digests, materializes
// files into the container filesystem, and records an install manifest that
// the build system later consults to locate compilers.
package installer

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fex/internal/container"
	"fex/internal/vfs"
)

// Kind classifies artifacts by setup step.
type Kind int

// Artifact kinds, one per setup step in Figure 1.
const (
	KindCompiler Kind = iota + 1
	KindDependency
	KindBenchmark
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindCompiler:
		return "compiler"
	case KindDependency:
		return "dependency"
	case KindBenchmark:
		return "benchmark"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Common errors.
var (
	// ErrUnknownArtifact reports a fetch of an artifact the repository
	// does not serve.
	ErrUnknownArtifact = errors.New("installer: unknown artifact")
	// ErrDigestMismatch reports a corrupted download.
	ErrDigestMismatch = errors.New("installer: artifact digest mismatch")
	// ErrDependencyCycle reports a cyclic Requires graph.
	ErrDependencyCycle = errors.New("installer: dependency cycle")
	// ErrOffline reports that the repository is unreachable.
	ErrOffline = errors.New("installer: repository offline")
)

// Artifact is one versioned, installable unit. Name encodes the pinned
// version the same way the paper's install scripts do ("gcc-6.1").
type Artifact struct {
	// Name is the unique install reference, e.g. "gcc-6.1".
	Name string
	// Version is the pinned software version, e.g. "6.1".
	Version string
	Kind    Kind
	// SizeBytes is the download size (for accounting against the ~17 GB
	// fully-installed figure).
	SizeBytes int64
	// Requires lists artifact names that must be installed first.
	Requires []string
	// Files are materialized into the container FS at install time.
	Files map[string][]byte
	// Description documents the artifact.
	Description string
}

// Digest returns the content digest of the artifact.
func (a *Artifact) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d\n", a.Name, a.Version, a.Kind, a.SizeBytes)
	paths := make([]string, 0, len(a.Files))
	for p := range a.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "%s:%d\n", p, len(a.Files[p]))
		h.Write(a.Files[p])
	}
	deps := append([]string(nil), a.Requires...)
	sort.Strings(deps)
	for _, d := range deps {
		fmt.Fprintf(h, "dep:%s\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Repository serves artifacts by name — the stand-in for the Internet
// during the setup stage.
type Repository struct {
	mu        sync.RWMutex
	artifacts map[string]*Artifact
	digests   map[string]string
	offline   bool
	corrupted map[string]bool
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		artifacts: make(map[string]*Artifact),
		digests:   make(map[string]string),
		corrupted: make(map[string]bool),
	}
}

// Publish registers an artifact.
func (r *Repository) Publish(a *Artifact) error {
	if a == nil || a.Name == "" {
		return errors.New("installer: publish requires a named artifact")
	}
	if a.Kind < KindCompiler || a.Kind > KindBenchmark {
		return fmt.Errorf("installer: artifact %q has invalid kind", a.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.artifacts[a.Name] = a
	r.digests[a.Name] = a.Digest()
	return nil
}

// SetOffline toggles simulated network failure (for failure-injection
// tests: setup must fail loudly, not silently skip).
func (r *Repository) SetOffline(offline bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.offline = offline
}

// Corrupt marks an artifact so the next fetch fails digest verification
// (simulates a tampered or truncated download).
func (r *Repository) Corrupt(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.corrupted[name] = true
}

// Fetch retrieves an artifact and verifies its digest.
func (r *Repository) Fetch(name string) (*Artifact, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.offline {
		return nil, fmt.Errorf("%w: fetching %q", ErrOffline, name)
	}
	a, ok := r.artifacts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownArtifact, name)
	}
	if r.corrupted[name] {
		return nil, fmt.Errorf("%w: %q", ErrDigestMismatch, name)
	}
	if a.Digest() != r.digests[name] {
		return nil, fmt.Errorf("%w: %q", ErrDigestMismatch, name)
	}
	return a, nil
}

// List returns all published artifact names, sorted.
func (r *Repository) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.artifacts))
	for n := range r.artifacts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// InstallRoot is where artifacts are materialized inside a container.
const InstallRoot = "/opt/fex"

// manifestPath records installed artifacts inside the container FS.
const manifestPath = "/var/lib/fex/installed"

// Installed describes one installed artifact in the manifest.
type Installed struct {
	Name    string
	Version string
	Kind    Kind
	Digest  string
}

// Installer installs artifacts from a repository into a container.
type Installer struct {
	repo *Repository
	ctr  *container.Container
}

// New returns an installer bound to the given repository and container.
func New(repo *Repository, ctr *container.Container) (*Installer, error) {
	if repo == nil {
		return nil, errors.New("installer: nil repository")
	}
	if ctr == nil {
		return nil, errors.New("installer: nil container")
	}
	return &Installer{repo: repo, ctr: ctr}, nil
}

// Resolve returns the topologically ordered install plan for name —
// dependencies first, the requested artifact last. Already-installed
// artifacts are skipped.
func (ins *Installer) Resolve(name string) ([]*Artifact, error) {
	installed, err := ins.Manifest()
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(installed))
	for _, it := range installed {
		have[it.Name] = true
	}

	var plan []*Artifact
	visiting := make(map[string]bool)
	done := make(map[string]bool)
	var visit func(n string, stack []string) error
	visit = func(n string, stack []string) error {
		if done[n] || have[n] {
			return nil
		}
		if visiting[n] {
			return fmt.Errorf("%w: %s", ErrDependencyCycle, strings.Join(append(stack, n), " -> "))
		}
		visiting[n] = true
		a, err := ins.repo.Fetch(n)
		if err != nil {
			return err
		}
		deps := append([]string(nil), a.Requires...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d, append(stack, n)); err != nil {
				return err
			}
		}
		visiting[n] = false
		done[n] = true
		plan = append(plan, a)
		return nil
	}
	if err := visit(name, nil); err != nil {
		return nil, err
	}
	return plan, nil
}

// Install resolves and installs the named artifact (and its transitive
// dependencies) into the container, returning the names actually installed
// in order.
func (ins *Installer) Install(name string) ([]string, error) {
	plan, err := ins.Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("install %s: %w", name, err)
	}
	fsys, err := ins.ctr.FS()
	if err != nil {
		return nil, fmt.Errorf("install %s: %w", name, err)
	}
	var names []string
	for _, a := range plan {
		root := InstallRoot + "/" + a.Name
		for rel, data := range a.Files {
			p := root + "/" + strings.TrimPrefix(rel, "/")
			if err := fsys.WriteFile(p, data, 0o755); err != nil {
				return nil, fmt.Errorf("install %s: write %s: %w", a.Name, p, err)
			}
		}
		// Always create the root so empty artifacts are still discoverable.
		if err := fsys.MkdirAll(root); err != nil {
			return nil, fmt.Errorf("install %s: %w", a.Name, err)
		}
		if err := ins.appendManifest(fsys, Installed{
			Name: a.Name, Version: a.Version, Kind: a.Kind, Digest: a.Digest(),
		}); err != nil {
			return nil, fmt.Errorf("install %s: %w", a.Name, err)
		}
		names = append(names, a.Name)
	}
	return names, nil
}

func (ins *Installer) appendManifest(fsys *vfs.FS, it Installed) error {
	var existing []byte
	if fsys.Exists(manifestPath) {
		data, err := fsys.ReadFile(manifestPath)
		if err != nil {
			return err
		}
		existing = data
	}
	line := fmt.Sprintf("%s|%s|%d|%s\n", it.Name, it.Version, it.Kind, it.Digest)
	return fsys.WriteFile(manifestPath, append(existing, []byte(line)...), 0o644)
}

// ManifestBytes returns the raw install manifest — the installed set
// exactly as recorded in the container; nil when nothing is installed.
// Equal bytes mean equal answers from IsInstalled. The bytes are the
// file's own (vfs.FS.ReadFileShared), read in one vfs operation, and
// must not be modified.
func (ins *Installer) ManifestBytes() ([]byte, error) {
	fsys, err := ins.ctr.FS()
	if err != nil {
		return nil, err
	}
	data, err := fsys.ReadFileShared(manifestPath)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// Manifest returns the artifacts recorded as installed in the container.
func (ins *Installer) Manifest() ([]Installed, error) {
	data, err := ins.ManifestBytes()
	if err != nil || data == nil {
		return nil, err
	}
	var out []Installed
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 4 {
			return nil, fmt.Errorf("installer: malformed manifest line %q", line)
		}
		k, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("installer: malformed manifest kind %q", parts[2])
		}
		out = append(out, Installed{
			Name: parts[0], Version: parts[1], Kind: Kind(k), Digest: parts[3],
		})
	}
	return out, nil
}

// IsInstalled reports whether the named artifact is in the manifest.
func (ins *Installer) IsInstalled(name string) (bool, error) {
	items, err := ins.Manifest()
	if err != nil {
		return false, err
	}
	for _, it := range items {
		if it.Name == name {
			return true, nil
		}
	}
	return false, nil
}
