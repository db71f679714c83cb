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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Common error values, matchable with errors.Is.
var (
	// ErrNotExist reports that a path does not exist.
	ErrNotExist = errors.New("file does not exist")
	// ErrExist reports that a path already exists.
	ErrExist = errors.New("file already exists")
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
// Invariant: a file's bytes data[0:len(data)] are never mutated in
// place. WriteFile replaces the node and Append only extends the slice,
// so a data slice taken under the lock stays valid, unchanging, after the
// lock is released. Save streams such slices without copying them, and
// Clone and CopyTree share them between nodes: the copy gets
// data[:len:len], whose capped capacity makes an Append on either side
// reallocate instead of writing into the other's spare capacity.
type node struct {
	name     string
	isDir    bool
	data     []byte
	mode     fs.FileMode
	modTime  time.Time
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
		name:    n.name,
		isDir:   n.isDir,
		mode:    n.mode,
		modTime: n.modTime,
	}
	if n.data != nil {
		c.data = n.data[:len(n.data):len(n.data)]
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
		Name:    n.name,
		Path:    p,
		IsDir:   n.isDir,
		Size:    int64(len(n.data)),
		Mode:    n.mode,
		ModTime: n.modTime,
	}
}

// FS is an in-memory filesystem. The zero value is not usable; call New.
type FS struct {
	mu   sync.RWMutex
	root *node
	now  func() time.Time
	// ops counts public filesystem operations. Subsystems that batch their
	// access patterns (the result store's bulk lookups) use it to quantify
	// how many filesystem round trips a code path costs.
	ops atomic.Uint64
}

// Ops returns the number of filesystem operations performed so far. Each
// public method call counts as one operation regardless of how many
// entries it touches, mirroring the per-syscall cost model of a real
// filesystem.
func (f *FS) Ops() uint64 { return f.ops.Load() }

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{
		root: newRoot(),
		// A fixed clock keeps trees byte-identical across runs; callers that
		// care about real timestamps can override via SetClock.
		now: func() time.Time { return time.Unix(0, 0).UTC() },
	}
}

// SetClock overrides the timestamp source used for new files.
func (f *FS) SetClock(now func() time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = now
}

// Clone returns a copy of the filesystem in O(entries): file bytes are
// shared, not copied, which the never-mutated-in-place invariant on node
// makes safe. Writes on either side stay invisible to the other.
func (f *FS) Clone() *FS {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return &FS{root: f.root.clone(), now: f.now}
}

func splitPath(p string) ([]string, error) {
	p = path.Clean("/" + strings.TrimSpace(p))
	if p == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.TrimPrefix(p, "/"), "/")
	for _, part := range parts {
		if part == "" {
			return nil, fmt.Errorf("invalid path element in %q", p)
		}
	}
	return parts, nil
}

// walk returns the node at path p, or an error.
func (f *FS) walk(p string) (*node, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	cur := f.root
	for _, part := range parts {
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

// walkParent returns the parent directory node of p and the final element.
func (f *FS) walkParent(p string) (*node, string, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("root has no parent")
	}
	cur := f.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			return nil, "", ErrNotExist
		}
		if !next.isDir {
			return nil, "", ErrNotDir
		}
		cur = next
	}
	return cur, parts[len(parts)-1], nil
}

// MkdirAll creates a directory named p, along with any necessary parents.
// Existing directories are left untouched.
func (f *FS) MkdirAll(p string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parts, err := splitPath(p)
	if err != nil {
		return &PathError{Op: "mkdir", Path: p, Err: err}
	}
	cur := f.root
	for _, part := range parts {
		next, ok := cur.children[part]
		if !ok {
			next = &node{
				name:     part,
				isDir:    true,
				mode:     fs.ModeDir | 0o755,
				modTime:  f.now(),
				children: make(map[string]*node),
			}
			cur.children[part] = next
		} else if !next.isDir {
			return &PathError{Op: "mkdir", Path: p, Err: ErrNotDir}
		}
		cur = next
	}
	return nil
}

// WriteFile writes data to the named file, creating parent directories as
// needed and truncating any existing file.
func (f *FS) WriteFile(p string, data []byte, mode fs.FileMode) error {
	dir := path.Dir(path.Clean("/" + p))
	if err := f.MkdirAll(dir); err != nil {
		return err
	}
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return &PathError{Op: "write", Path: p, Err: err}
	}
	if existing, ok := parent.children[name]; ok && existing.isDir {
		return &PathError{Op: "write", Path: p, Err: ErrIsDir}
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	parent.children[name] = &node{
		name:    name,
		data:    buf,
		mode:    mode,
		modTime: f.now(),
	}
	return nil
}

// WriteFileExcl writes data to the named file like WriteFile, but fails
// with ErrExist if the file already exists. The existence check and the
// create happen under one lock acquisition, giving callers an O_EXCL-style
// primitive: of several concurrent creators of the same path, exactly one
// succeeds. The result store's maintenance lockfile is built on it.
func (f *FS) WriteFileExcl(p string, data []byte, mode fs.FileMode) error {
	dir := path.Dir(path.Clean("/" + p))
	if err := f.MkdirAll(dir); err != nil {
		return err
	}
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return &PathError{Op: "create", Path: p, Err: err}
	}
	if _, ok := parent.children[name]; ok {
		return &PathError{Op: "create", Path: p, Err: ErrExist}
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	parent.children[name] = &node{
		name:    name,
		data:    buf,
		mode:    mode,
		modTime: f.now(),
	}
	return nil
}

// Append appends data to the named file, creating it (and parent
// directories) if absent, and returns the offset at which the data landed
// (the file's previous length). The read-modify-write happens under one
// lock acquisition, so concurrent appenders never interleave within a
// record and each learns its own record's offset — the primitive behind
// the result store's journal.
func (f *FS) Append(p string, data []byte) (int64, error) {
	dir := path.Dir(path.Clean("/" + p))
	if err := f.MkdirAll(dir); err != nil {
		return 0, err
	}
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, name, err := f.walkParent(p)
	if err != nil {
		return 0, &PathError{Op: "append", Path: p, Err: err}
	}
	n, ok := parent.children[name]
	if !ok {
		n = &node{name: name, mode: 0o644, modTime: f.now()}
		parent.children[name] = n
	}
	if n.isDir {
		return 0, &PathError{Op: "append", Path: p, Err: ErrIsDir}
	}
	off := int64(len(n.data))
	n.data = append(n.data, data...)
	n.modTime = f.now()
	return off, nil
}

// ReadFile returns the contents of the named file.
func (f *FS) ReadFile(p string) ([]byte, error) {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(p)
	if err != nil {
		return nil, &PathError{Op: "read", Path: p, Err: err}
	}
	if n.isDir {
		return nil, &PathError{Op: "read", Path: p, Err: ErrIsDir}
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Stat describes a filesystem entry.
type Stat struct {
	Name    string
	Path    string
	IsDir   bool
	Size    int64
	Mode    fs.FileMode
	ModTime time.Time
}

// Stat returns metadata for the named path.
func (f *FS) Stat(p string) (Stat, error) {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(p)
	if err != nil {
		return Stat{}, &PathError{Op: "stat", Path: p, Err: err}
	}
	return n.stat(path.Clean("/" + p)), nil
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
	n, err := f.walk(p)
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
	base := path.Clean("/" + p)
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

// Rename moves the entry at oldp to newp, replacing any existing file at
// newp (like os.Rename). The destination's parent directories must exist;
// renaming onto an existing directory, a directory onto an existing file,
// or a directory into its own subtree is an error (matching os.Rename,
// which would otherwise orphan the subtree as an unreachable cycle).
// Renaming a path onto itself is a no-op. Combined with WriteFile it
// gives callers the write-temp-then-rename idiom: the entry at newp is
// either the old content or the complete new content, never a partial
// state observable under the FS lock.
func (f *FS) Rename(oldp, newp string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	oldClean := path.Clean("/" + strings.TrimSpace(oldp))
	newClean := path.Clean("/" + strings.TrimSpace(newp))
	oldParent, oldName, err := f.walkParent(oldp)
	if err != nil {
		return &PathError{Op: "rename", Path: oldp, Err: err}
	}
	n, ok := oldParent.children[oldName]
	if !ok {
		return &PathError{Op: "rename", Path: oldp, Err: ErrNotExist}
	}
	if newClean == oldClean {
		return nil
	}
	if n.isDir && strings.HasPrefix(newClean, oldClean+"/") {
		return &PathError{Op: "rename", Path: newp, Err: fmt.Errorf("destination is inside source %q", oldClean)}
	}
	newParent, newName, err := f.walkParent(newp)
	if err != nil {
		return &PathError{Op: "rename", Path: newp, Err: err}
	}
	if existing, ok := newParent.children[newName]; ok {
		if existing.isDir {
			return &PathError{Op: "rename", Path: newp, Err: ErrIsDir}
		}
		if n.isDir {
			return &PathError{Op: "rename", Path: newp, Err: ErrNotDir}
		}
	}
	delete(oldParent.children, oldName)
	n.name = newName
	newParent.children[newName] = n
	return nil
}

// RemoveAll removes the named path and any children it contains. Removing a
// path that does not exist is not an error.
func (f *FS) RemoveAll(p string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	parts, err := splitPath(p)
	if err != nil {
		return &PathError{Op: "removeall", Path: p, Err: err}
	}
	if len(parts) == 0 {
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
	return f.walkTree("walk", root, func(p string, n *node) error { return fn(n.stat(p)) })
}

// walkTree calls fn for every node below root in Walk order, under one
// read lock, counting one operation.
func (f *FS) walkTree(op, root string, fn func(p string, n *node) error) error {
	f.ops.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.walk(root)
	if err != nil {
		return &PathError{Op: op, Path: root, Err: err}
	}
	return visit(path.Clean("/"+root), n, fn)
}

func visit(base string, n *node, fn func(p string, n *node) error) error {
	if !n.isDir {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := n.children[name]
		p := path.Join(base, name)
		if err := fn(p, c); err != nil {
			return err
		}
		if err := visit(p, c, fn); err != nil {
			return err
		}
	}
	return nil
}

// Glob returns paths below root whose base name matches the pattern
// (path.Match syntax).
func (f *FS) Glob(root, pattern string) ([]string, error) {
	var out []string
	err := f.Walk(root, func(st Stat) error {
		ok, err := path.Match(pattern, st.Name)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, st.Path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TotalSize returns the sum of file sizes below root.
func (f *FS) TotalSize(root string) (int64, error) {
	var total int64
	err := f.Walk(root, func(st Stat) error {
		total += st.Size
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// CopyTree copies the tree rooted at src into dst (dst is created).
func (f *FS) CopyTree(src, dst string) error {
	f.ops.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	srcNode, err := f.walk(src)
	if err != nil {
		return &PathError{Op: "copytree", Path: src, Err: err}
	}
	cloned := srcNode.clone()
	parts, err := splitPath(dst)
	if err != nil || len(parts) == 0 {
		return &PathError{Op: "copytree", Path: dst, Err: errors.Join(err, errors.New("bad destination"))}
	}
	cur := f.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur.children[part]
		if !ok {
			next = &node{
				name:     part,
				isDir:    true,
				mode:     fs.ModeDir | 0o755,
				modTime:  f.now(),
				children: make(map[string]*node),
			}
			cur.children[part] = next
		}
		if !next.isDir {
			return &PathError{Op: "copytree", Path: dst, Err: ErrNotDir}
		}
		cur = next
	}
	cloned.name = parts[len(parts)-1]
	cur.children[cloned.name] = cloned
	return nil
}

// Digest returns a deterministic SHA-256 digest of the tree rooted at root:
// the digest covers relative paths, file kinds, and file contents, so two
// trees with identical structure and bytes produce identical digests.
func (f *FS) Digest(root string) (string, error) {
	h := sha256.New()
	err := f.walkTree("digest", root, func(p string, n *node) error {
		fmt.Fprintf(h, "%s|%t|%d\n", p, n.isDir, len(n.data))
		h.Write(n.data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
