// Package vfs provides a small, concurrency-safe, in-memory filesystem.
//
// It is the storage substrate for the container and build subsystems: a
// container's root filesystem is a vfs.FS assembled from image layers, and
// the build system materializes build directories (build/<suite>/<bench>/<type>)
// inside it. Keeping the filesystem in memory makes experiments hermetic and
// reproducible: two runs of the same experiment produce byte-identical trees,
// which the container subsystem verifies by digesting them.
//
// Paths are slash-separated and rooted ("/a/b/c"). Relative paths are
// interpreted against "/".
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Common error values, matchable with errors.Is.
var (
	// ErrNotExist reports that a path does not exist.
	ErrNotExist = errors.New("file does not exist")
	// ErrIsDir reports that a file operation was attempted on a directory.
	ErrIsDir = errors.New("is a directory")
	// ErrNotDir reports that a directory operation was attempted on a file.
	ErrNotDir = errors.New("not a directory")
	// ErrNotEmpty reports that a directory is not empty.
	ErrNotEmpty = errors.New("directory not empty")
)

// PathError records an error and the path that caused it.
type PathError struct {
	Op   string
	Path string
	Err  error
}

// Error implements the error interface.
func (e *PathError) Error() string {
	return fmt.Sprintf("vfs %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap supports errors.Is / errors.As.
func (e *PathError) Unwrap() error { return e.Err }

// node is one filesystem entry.
//
// Invariant: a file's bytes are never mutated in place. WriteFile
// replaces the node whole, so a data slice taken under the lock stays
// valid, unchanging, after the lock is released. Save streams such slices
// without copying them, Clone shares them between nodes, and
// Load leaves every loaded file a capacity-capped slice of the one buffer
// it read the snapshot into, which stays alive while any such file does.
type node struct {
	name     string
	isDir    bool
	data     []byte
	mode     fs.FileMode
	children map[string]*node
}

func newRoot() *node {
	return &node{
		name:     "/",
		isDir:    true,
		mode:     fs.ModeDir | 0o755,
		children: make(map[string]*node),
	}
}

// clone copies the tree rooted at n, sharing file bytes (see node).
func (n *node) clone() *node {
	c := &node{
		name:  n.name,
		isDir: n.isDir,
		data:  n.data,
		mode:  n.mode,
	}
	if n.children != nil {
		c.children = make(map[string]*node, len(n.children))
		for k, v := range n.children {
			c.children[k] = v.clone()
		}
	}
	return c
}

// stat describes n, found at path p.
func (n *node) stat(p string) Stat {
	return Stat{
		Name:  n.name,
		Path:  p,
		IsDir: n.isDir,
		Size:  int64(len(n.data)),
		Mode:  n.mode,
	}
}

// FS is an in-memory filesystem. The zero value is not usable; call New.
type FS struct {
	mu   sync.RWMutex
	root *node
	// ops counts public filesystem operations, so tests and benchmarks
	// can count the filesystem round trips a code path costs (a result
	// store Put is one, a lookup one per key).
	ops atomic.Uint64
}

// Ops returns the number of filesystem operations performed so far. Each
// public method call counts as one operation regardless of how many
// entries it touches, mirroring the per-syscall cost model of a real
// filesystem.
func (f *FS) Ops() uint64 { return f.ops.Load() }

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{root: newRoot()}
}

// Clone returns a copy of the filesystem in O(entries): file bytes are
// shared, not copied, which the never-mutated-in-place invariant on node
// makes safe. Writes on either side stay invisible to the other.
func (f *FS) Clone() *FS {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return &FS{root: f.root.clone()}
}

// cleanPath returns p trimmed, rooted and cleaned: "/" or "/a/b". A path
// already in that form comes back as is, without allocating.
func cleanPath(p string) string {
	p = strings.TrimSpace(p)
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// splitParent splits a clean path into its parent directory, relative to
// the root ("" for the root itself), and its final element ("" for "/").
func splitParent(clean string) (dir, name string) {
	i := strings.LastIndexByte(clean, '/')
	return strings.TrimPrefix(clean[:i], "/"), clean[i+1:]
}

// lookup returns the node at rel, a clean path relative to n ("" is n).
func (n *node) lookup(rel string) (*node, error) {
	cur := n
	for rel != "" {
		var part string
		part, rel, _ = strings.Cut(rel, "/")
		if !cur.isDir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// walk returns the node at the clean path p, or an error.
func (f *FS) walk(clean string) (*node, error) {
	return f.root.lookup(clean[1:])
}

// walkParent returns the parent directory node of p and the final element.
func (f *FS) walkParent(p string) (*node, string, error) {
	dir, name := splitParent(cleanPath(p))
	if name == "" {
		return nil, "", errors.New("root has no parent")
	}
	parent, err := f.root.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir {
		return nil, "", ErrNotDir
	}
	return parent, name, nil
}

// mkdirs returns the directory at rel, a clean path relative to the root,
// creating it and any missing parents.
func (f *FS) mkdirs(rel string) (*node, error) {
	cur := f.root
	for rel != "" {
		var part string
		part, rel, _ = strings.Cut(rel, "/")
		next, ok := cur.children[part]
		if !ok {
			next = &node{
				name:     part,
				isDir:    true,
				mode:     fs.ModeDir | 0o755,
				children: make(map[string]*node),
			}
			cur.children[part] = next
		} else if !next.isDir {
			return nil, ErrNotDir
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates a directory named p, along with any necessary parents.
// Existing directories are left untouched.
func (f *FS) MkdirAll(p string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.mkdirs(cleanPath(p)[1:]); err != nil {
		return &PathError{Op: "mkdir", Path: p, Err: err}
	}
	return nil
}

// createParent returns the parent directory of p, creating it and any
// missing parents, and p's final element.
func (f *FS) createParent(p string) (*node, string, error) {
	dir, name := splitParent(cleanPath(p))
	if name == "" {
		return nil, "", errors.New("root has no parent")
	}
	parent, err := f.mkdirs(dir)
	return parent, name, err
}

// WriteFile writes data to the named file, creating parent directories as
// needed and truncating any existing file.
func (f *FS) WriteFile(p string, data []byte, mode fs.FileMode) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.createParent(p)
	if err != nil {
		return &PathError{Op: "write", Path: p, Err: err}
	}
	if existing, ok := parent.children[name]; ok && existing.isDir {
		return &PathError{Op: "write", Path: p, Err: ErrIsDir}
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	parent.children[name] = &node{
		name: name,
		data: buf,
		mode: mode,
	}
	return nil
}

// ReadFile returns a copy of the contents of the named file.
func (f *FS) ReadFile(p string) ([]byte, error) {
	data, err := f.ReadFileShared(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// ReadFileShared is ReadFile without the copy: it returns the file's
// bytes themselves, which stay valid and unchanged after later writes
// (see node). The result is read-only: a caller must never modify it.
func (f *FS) ReadFileShared(p string) ([]byte, error) {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(cleanPath(p))
	if err != nil {
		return nil, &PathError{Op: "read", Path: p, Err: err}
	}
	if n.isDir {
		return nil, &PathError{Op: "read", Path: p, Err: ErrIsDir}
	}
	return n.data[:len(n.data):len(n.data)], nil
}

// Stat describes a filesystem entry.
type Stat struct {
	Name  string
	Path  string
	IsDir bool
	Size  int64
	Mode  fs.FileMode
}

// Stat returns metadata for the named path.
func (f *FS) Stat(p string) (Stat, error) {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	clean := cleanPath(p)
	n, err := f.walk(clean)
	if err != nil {
		return Stat{}, &PathError{Op: "stat", Path: p, Err: err}
	}
	return n.stat(clean), nil
}

// Exists reports whether the named path exists.
func (f *FS) Exists(p string) bool {
	_, err := f.Stat(p)
	return err == nil
}

// IsDir reports whether the named path exists and is a directory.
func (f *FS) IsDir(p string) bool {
	st, err := f.Stat(p)
	return err == nil && st.IsDir
}

// ReadDir lists the entries of the named directory, sorted by name.
func (f *FS) ReadDir(p string) ([]Stat, error) {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	base := cleanPath(p)
	n, err := f.walk(base)
	if err != nil {
		return nil, &PathError{Op: "readdir", Path: p, Err: err}
	}
	if !n.isDir {
		return nil, &PathError{Op: "readdir", Path: p, Err: ErrNotDir}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Stat, 0, len(names))
	for _, name := range names {
		out = append(out, n.children[name].stat(path.Join(base, name)))
	}
	return out, nil
}

// Remove removes the named file or empty directory.
func (f *FS) Remove(p string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return &PathError{Op: "remove", Path: p, Err: err}
	}
	n, ok := parent.children[name]
	if !ok {
		return &PathError{Op: "remove", Path: p, Err: ErrNotExist}
	}
	if n.isDir && len(n.children) > 0 {
		return &PathError{Op: "remove", Path: p, Err: ErrNotEmpty}
	}
	delete(parent.children, name)
	return nil
}

// RemoveAll removes the named path and any children it contains. Removing a
// path that does not exist is not an error.
func (f *FS) RemoveAll(p string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if cleanPath(p) == "/" {
		f.root.children = make(map[string]*node)
		return nil
	}
	parent, name, err := f.walkParent(p)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return &PathError{Op: "removeall", Path: p, Err: err}
	}
	delete(parent.children, name)
	return nil
}

// WalkFunc is called for every entry visited by Walk, in depth-first
// lexicographic order. Returning an error stops the walk.
type WalkFunc func(st Stat) error

// Walk visits every entry below root (excluding root itself).
func (f *FS) Walk(root string, fn WalkFunc) error {
	return f.walkTree("walk", root, func(p []byte, n *node) error { return fn(n.stat(string(p))) })
}

// walkTree calls fn for every node below root in Walk order, under one
// read lock, counting one operation. fn gets each node's absolute path in
// a buffer that is valid only until fn returns.
func (f *FS) walkTree(op, root string, fn func(p []byte, n *node) error) error {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	base := cleanPath(root)
	n, err := f.walk(base)
	if err != nil {
		return &PathError{Op: op, Path: root, Err: err}
	}
	w := walker{fn: fn}
	if base != "/" {
		w.path = append(w.path, base...)
	}
	return w.visit(n)
}

// walker is one walk's state: the path of the entry being visited, built
// in place, and a stack of sorted children, one run per open directory,
// so the walk allocates per directory depth, not per entry.
type walker struct {
	path []byte
	kids []child
	fn   func(p []byte, n *node) error
}

// child is one entry of a directory.
type child struct {
	name string
	n    *node
}

// visit calls w.fn for every node below n, whose path is w.path.
func (w *walker) visit(n *node) error {
	if !n.isDir {
		return nil
	}
	base, start := len(w.path), len(w.kids)
	for name, c := range n.children {
		w.kids = append(w.kids, child{name, c})
	}
	end := len(w.kids)
	slices.SortFunc(w.kids[start:end], func(a, b child) int { return strings.Compare(a.name, b.name) })
	for i := start; i < end; i++ {
		c := w.kids[i]
		w.path = append(append(w.path[:base], '/'), c.name...)
		if err := w.fn(w.path, c.n); err != nil {
			return err
		}
		if err := w.visit(c.n); err != nil {
			return err
		}
	}
	w.path, w.kids = w.path[:base], w.kids[:start]
	return nil
}

// Digest returns a deterministic SHA-256 digest of the tree rooted at root:
// the digest covers relative paths, file kinds, and file contents, so two
// trees with identical structure and bytes produce identical digests.
func (f *FS) Digest(root string) (string, error) {
	h := sha256.New()
	err := f.walkTree("digest", root, func(p []byte, n *node) error {
		fmt.Fprintf(h, "%s|%t|%d\n", p, n.isDir, len(n.data))
		h.Write(n.data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
