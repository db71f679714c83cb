// Package container is the reproducibility substrate of the framework — the
// role Docker plays in the paper ("we prepare the environment and run all
// experiments in a Docker container in such a way that they are as
// independent from the actual host system as possible").
//
// What FEX needs from Docker is (a) a pinned, content-addressed software
// stack, (b) an isolated filesystem and environment for experiments, and
// (c) distributable images of bounded size. This package provides exactly
// those properties over the in-memory vfs:
//
//   - an Image is an ordered list of content-addressed Layers (files +
//     package manifest) with a deterministic digest;
//   - a Registry stores and serves images, verifying digests on pull;
//   - a Container instantiates an image into a private filesystem and
//     environment, so experiments cannot observe host state.
//
// Image size accounting mirrors the paper's footnote: the shipped image is
// ~1.04 GB — 122 MB Ubuntu base, ~300 MB benchmark sources, and the rest
// helper packages — while a fully pre-installed image would swell to ~17 GB,
// which is why dependencies are installed at setup time instead.
package container

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fex/internal/vfs"
)

// Common errors.
var (
	// ErrNotFound reports a missing image or container.
	ErrNotFound = errors.New("container: not found")
	// ErrDigestMismatch reports a corrupted or tampered image.
	ErrDigestMismatch = errors.New("container: digest mismatch")
	// ErrStopped reports an operation on a stopped container.
	ErrStopped = errors.New("container: container is stopped")
)

// Package describes one software package baked into a layer. Packages in
// the base image are framework helpers (git, python3, wget, perf, …) that,
// per the paper, "do not influence the experiments".
type Package struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// SizeBytes is the installed size used for image size accounting.
	SizeBytes int64 `json:"sizeBytes"`
	// Purpose documents why the package is in the image.
	Purpose string `json:"purpose"`
}

// Layer is one content-addressed image layer: a file tree plus a package
// manifest.
type Layer struct {
	// Comment describes the layer (like a Dockerfile step).
	Comment  string
	Files    map[string][]byte
	Packages []Package
}

// Digest returns the deterministic content digest of the layer.
func (l *Layer) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "comment:%s\n", l.Comment)
	paths := make([]string, 0, len(l.Files))
	for p := range l.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "file:%s:%d\n", p, len(l.Files[p]))
		h.Write(l.Files[p])
	}
	pkgs := append([]Package(nil), l.Packages...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Name < pkgs[j].Name })
	for _, p := range pkgs {
		fmt.Fprintf(h, "pkg:%s:%s:%d\n", p.Name, p.Version, p.SizeBytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Size returns the layer's byte size (files + packages).
func (l *Layer) Size() int64 {
	var total int64
	for _, data := range l.Files {
		total += int64(len(data))
	}
	for _, p := range l.Packages {
		total += p.SizeBytes
	}
	return total
}

// Image is an immutable, content-addressed stack of layers.
type Image struct {
	Name   string
	Tag    string
	Layers []Layer
	// Env carries image-level environment defaults (like Dockerfile ENV).
	Env map[string]string
}

// Ref returns the image reference ("name:tag").
func (im *Image) Ref() string { return im.Name + ":" + im.Tag }

// Digest returns the image digest covering all layers, the reference, and
// environment defaults.
func (im *Image) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "ref:%s\n", im.Ref())
	for _, l := range im.Layers {
		fmt.Fprintf(h, "layer:%s\n", l.Digest())
	}
	keys := make([]string, 0, len(im.Env))
	for k := range im.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "env:%s=%s\n", k, im.Env[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Size returns the total image size in bytes.
func (im *Image) Size() int64 {
	var total int64
	for i := range im.Layers {
		total += im.Layers[i].Size()
	}
	return total
}

// SizeBreakdown returns per-layer sizes keyed by layer comment, in layer
// order — this regenerates the paper's image-size footnote.
type SizeBreakdown struct {
	Layer string
	Bytes int64
}

// Breakdown returns the per-layer size breakdown.
func (im *Image) Breakdown() []SizeBreakdown {
	out := make([]SizeBreakdown, 0, len(im.Layers))
	for i := range im.Layers {
		out = append(out, SizeBreakdown{Layer: im.Layers[i].Comment, Bytes: im.Layers[i].Size()})
	}
	return out
}

// Packages returns all packages across layers.
func (im *Image) Packages() []Package {
	var out []Package
	for i := range im.Layers {
		out = append(out, im.Layers[i].Packages...)
	}
	return out
}

// Builder assembles an Image layer by layer (a programmatic Dockerfile).
type Builder struct {
	image Image
	err   error
}

// NewBuilder starts an image build.
func NewBuilder(name, tag string) *Builder {
	return &Builder{image: Image{Name: name, Tag: tag, Env: make(map[string]string)}}
}

// From stacks all layers of a base image first (Dockerfile FROM).
func (b *Builder) From(base *Image) *Builder {
	if b.err != nil {
		return b
	}
	if base == nil {
		b.err = errors.New("container: nil base image")
		return b
	}
	b.image.Layers = append(b.image.Layers, base.Layers...)
	for k, v := range base.Env {
		b.image.Env[k] = v
	}
	return b
}

// AddLayer appends a prebuilt layer.
func (b *Builder) AddLayer(l Layer) *Builder {
	if b.err != nil {
		return b
	}
	if l.Comment == "" {
		b.err = errors.New("container: layer requires a comment")
		return b
	}
	// Deep-copy files so later mutation of the caller's map cannot change
	// the layer content after its digest was computed.
	files := make(map[string][]byte, len(l.Files))
	for p, data := range l.Files {
		buf := make([]byte, len(data))
		copy(buf, data)
		files[p] = buf
	}
	l.Files = files
	l.Packages = append([]Package(nil), l.Packages...)
	b.image.Layers = append(b.image.Layers, l)
	return b
}

// CopyDir captures the tree rooted at src inside fs as a new layer mounted
// at dst (Dockerfile COPY).
func (b *Builder) CopyDir(fsys *vfs.FS, src, dst, comment string) *Builder {
	if b.err != nil {
		return b
	}
	files := make(map[string][]byte)
	err := fsys.Walk(src, func(st vfs.Stat) error {
		if st.IsDir {
			return nil
		}
		data, err := fsys.ReadFile(st.Path)
		if err != nil {
			return err
		}
		rel := strings.TrimPrefix(st.Path, strings.TrimSuffix(src, "/"))
		files[dst+rel] = data
		return nil
	})
	if err != nil {
		b.err = fmt.Errorf("container: copy %s: %w", src, err)
		return b
	}
	return b.AddLayer(Layer{Comment: comment, Files: files})
}

// SetEnv records an image environment default (Dockerfile ENV).
func (b *Builder) SetEnv(key, value string) *Builder {
	if b.err != nil {
		return b
	}
	b.image.Env[key] = value
	return b
}

// Build finalizes the image.
func (b *Builder) Build() (*Image, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.image.Name == "" || b.image.Tag == "" {
		return nil, errors.New("container: image requires name and tag")
	}
	im := b.image
	return &im, nil
}

// Registry stores images by reference and serves verified pulls; it stands
// in for Docker Hub in the setup workflow.
type Registry struct {
	mu     sync.RWMutex
	images map[string]*Image
	// digests pins the digest recorded at push time so Pull can detect
	// tampering.
	digests map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		images:  make(map[string]*Image),
		digests: make(map[string]string),
	}
}

// Push stores an image. Re-pushing the same reference replaces it.
func (r *Registry) Push(im *Image) error {
	if im == nil {
		return errors.New("container: push nil image")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[im.Ref()] = im
	r.digests[im.Ref()] = im.Digest()
	return nil
}

// Pull retrieves an image by reference, verifying its digest.
func (r *Registry) Pull(ref string) (*Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	im, ok := r.images[ref]
	if !ok {
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, ref)
	}
	if got, want := im.Digest(), r.digests[ref]; got != want {
		return nil, fmt.Errorf("%w: image %q: got %s want %s", ErrDigestMismatch, ref, got[:12], want[:12])
	}
	return im, nil
}

// List returns the stored references, sorted.
func (r *Registry) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.images))
	for ref := range r.images {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// Container is a running instance of an image: a private filesystem plus an
// isolated environment. Experiments execute against the container's FS and
// never see host state.
type Container struct {
	ID    string
	image *Image

	mu          sync.Mutex
	fs          *vfs.FS
	env         map[string]string
	stopped     bool
	cloneFaults map[string]error
}

// Run instantiates an image into a fresh container. The container's
// filesystem is assembled by applying layers in order (later layers shadow
// earlier files, as with overlayfs).
func Run(im *Image) (*Container, error) {
	if im == nil {
		return nil, errors.New("container: run nil image")
	}
	fsys := vfs.New()
	for i := range im.Layers {
		l := &im.Layers[i]
		for p, data := range l.Files {
			if err := fsys.WriteFile(p, data, 0o644); err != nil {
				return nil, fmt.Errorf("container: materialize layer %q: %w", l.Comment, err)
			}
		}
	}
	envCopy := make(map[string]string, len(im.Env))
	for k, v := range im.Env {
		envCopy[k] = v
	}
	id := im.Digest()[:12]
	return &Container{ID: id, image: im, fs: fsys, env: envCopy}, nil
}

// Image returns the image this container was created from.
func (c *Container) Image() *Image { return c.image }

// FS returns the container's private filesystem.
func (c *Container) FS() (*vfs.FS, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil, ErrStopped
	}
	return c.fs, nil
}

// Setenv sets an environment variable inside the container.
func (c *Container) Setenv(key, value string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	c.env[key] = value
	return nil
}

// Getenv reads an environment variable.
func (c *Container) Getenv(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.env[key]
	return v, ok
}

// Environ returns the container environment as sorted KEY=value strings.
func (c *Container) Environ() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.env))
	for k, v := range c.env {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

// Stop stops the container; further FS access fails.
func (c *Container) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
}

// Stopped reports whether the container was stopped.
func (c *Container) Stopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Clone instantiates a new container carrying a copy of this container's
// current filesystem and environment — the cluster-distribution step: the
// coordinator ships its container state (benchmark sources plus whatever
// the setup stage installed) to a worker host, which boots a private
// replica. The clone shares only immutable file bytes with the original
// (vfs.FS.Clone), so it costs O(entries), and writes on either side stay
// invisible to the other.
func (c *Container) Clone(id string) (*Container, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil, ErrStopped
	}
	if id == "" {
		return nil, errors.New("container: clone requires an id")
	}
	if err, ok := c.cloneFaults[id]; ok {
		return nil, fmt.Errorf("container: clone %q: %w", id, err)
	}
	fsys := c.fs.Clone()
	envCopy := make(map[string]string, len(c.env))
	for k, v := range c.env {
		envCopy[k] = v
	}
	return &Container{ID: id, image: c.image, fs: fsys, env: envCopy}, nil
}

// SetCloneFault injects a failure for Clone calls with the given id —
// the worker-provisioning step failing on one specific host while others
// clone fine. A nil err clears the fault.
func (c *Container) SetCloneFault(id string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil {
		delete(c.cloneFaults, id)
		return
	}
	if c.cloneFaults == nil {
		c.cloneFaults = make(map[string]error)
	}
	c.cloneFaults[id] = err
}

// Commit snapshots the container's current filesystem as a new image layer
// stacked on the original image — used to persist setup-stage installs.
func (c *Container) Commit(name, tag, comment string) (*Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil, ErrStopped
	}
	files := make(map[string][]byte)
	err := c.fs.Walk("/", func(st vfs.Stat) error {
		if st.IsDir {
			return nil
		}
		data, err := c.fs.ReadFile(st.Path)
		if err != nil {
			return err
		}
		files[st.Path] = data
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("container: commit: %w", err)
	}
	return NewBuilder(name, tag).
		SetEnvAll(c.env).
		AddLayer(Layer{Comment: comment, Files: files}).
		Build()
}

// SetEnvAll records all entries (helper for Commit).
func (b *Builder) SetEnvAll(env map[string]string) *Builder {
	for k, v := range env {
		b.SetEnv(k, v)
	}
	return b
}
