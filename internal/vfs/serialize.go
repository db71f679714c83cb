package vfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"path"
)

// Snapshot format. Save writes, and Load accepts, exactly this byte
// sequence; it is stable within a repository version and exists so CLI
// invocations can persist the experiment container between runs (fex.py
// keeps its state in a checked out working tree; we keep it in a state
// file):
//
//	magic      "fexvfs\x00" followed by the format version byte
//	entries    in Walk order (parents before children, siblings by name):
//	             kind byte (entryDir or entryFile)
//	             uvarint path length, absolute canonical path
//	             files only: uvarint mode, uvarint data length, data
//	end        one entryEnd byte
//	trailer    CRC-32C (Castagnoli) of every preceding byte, big-endian
//
// Varints are minimally encoded. Directories carry no mode (every
// directory is fs.ModeDir|0o755).
//
// Load reads a snapshot whole into one buffer and decodes it in place:
// loaded files' bytes are slices of that buffer, which therefore lives
// as long as any of them.
const (
	magic         = "fexvfs\x00"
	formatVersion = 1

	entryEnd  = 0
	entryDir  = 1
	entryFile = 2

	// maxPathLen bounds a stored path (PATH_MAX on Linux).
	maxPathLen = 4096
	// ioBufSize is the buffer size of Save's writer to a destination that
	// cannot reserve room, and the most Load reads and checksums at once.
	ioBufSize = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errNotSnapshot reports input that does not start with the snapshot
// magic, such as a state file written by an earlier repository version.
var errNotSnapshot = errors.New("not a fex state snapshot")

// snapFile is a file's bytes in a Save: they follow the entry headers
// up to offset at. data aliases the node's bytes, which are never mutated
// in place (see node), so it stays valid after the lock is released.
type snapFile struct {
	at   int
	data []byte
}

// Save serializes the whole filesystem to w in the snapshot format
// above. The entries are collected under one read lock without copying
// file bytes: their headers, paths included, are rendered into one
// buffer, and each file keeps a reference to its bytes. The writes to w
// happen after the lock is released, so writers are never blocked on w.
// A w that can reserve room, such as a *bytes.Buffer, is grown once by
// the snapshot's exact size, not doubled through tens of megabytes, and
// written straight through; any other w gets a buffered writer no larger
// than the snapshot. It counts as one filesystem operation.
func (f *FS) Save(w io.Writer) error {
	// Room for a few hundred entries, a small state, up front; a larger
	// one grows the two buffers by doubling.
	heads := make([]byte, 0, 16<<10)
	files := make([]snapFile, 0, 256)
	size := len(magic) + 1 + 1 + 4 // header, end marker, trailer
	err := f.walkTree("save", "/", func(p []byte, n *node) error {
		if len(p) > maxPathLen {
			// Load would reject it; fail now, while the previous state
			// file is still intact.
			return fmt.Errorf("path %.64q... is longer than %d bytes", p, maxPathLen)
		}
		if n.isDir {
			heads = append(heads, entryDir)
		} else {
			heads = append(heads, entryFile)
		}
		heads = binary.AppendUvarint(heads, uint64(len(p)))
		heads = append(heads, p...)
		if !n.isDir {
			heads = binary.AppendUvarint(heads, uint64(n.mode))
			heads = binary.AppendUvarint(heads, uint64(len(n.data)))
			files = append(files, snapFile{at: len(heads), data: n.data})
			size += len(n.data)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("vfs save: %w", err)
	}
	size += len(heads)
	var bw *bufio.Writer
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size)
	} else {
		bw = bufio.NewWriterSize(w, min(size, ioBufSize))
		w = bw
	}
	sw := &snapWriter{w: w}
	var buf [len(magic) + 1]byte
	sw.write(append(append(buf[:0], magic...), formatVersion))
	at := 0
	for _, file := range files {
		sw.write(heads[at:file.at])
		sw.write(file.data)
		at = file.at
	}
	sw.write(append(heads[at:], entryEnd))
	sw.write(binary.BigEndian.AppendUint32(buf[:0], sw.crc))
	if sw.err == nil && bw != nil {
		sw.err = bw.Flush()
	}
	if sw.err != nil {
		return fmt.Errorf("vfs save: write: %w", sw.err)
	}
	return nil
}

// snapWriter checksums what Save writes, keeping the first write error.
type snapWriter struct {
	w   io.Writer
	crc uint32
	err error
}

func (s *snapWriter) write(p []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, castagnoli, p)
	_, s.err = s.w.Write(p)
}

// Load replaces the filesystem contents with a snapshot produced by Save.
// The snapshot is decoded into a detached tree and checked whole (entry
// kinds, canonical paths in Walk order under existing directories,
// bounded lengths, end marker, checksum, nothing trailing) before that
// tree replaces the current one, so on any error the filesystem is left
// untouched. It counts as one filesystem operation.
func (f *FS) Load(r io.Reader) error {
	f.ops.Add(1)
	root, err := decode(r)
	if err != nil {
		return fmt.Errorf("vfs load: %w", err)
	}
	f.mu.Lock()
	f.root = root
	f.mu.Unlock()
	return nil
}

// openDir is a directory on the decoder's stack: the ancestors of the
// last decoded entry. last is the name of its last decoded child, so
// siblings must arrive in strictly increasing order.
type openDir struct {
	path string
	n    *node
	last string
}

func decode(r io.Reader) (*node, error) {
	var head [len(magic) + 1]byte
	if _, err := io.ReadFull(r, head[:]); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	} else if err != nil || string(head[:len(magic)]) != magic {
		return nil, errNotSnapshot
	}
	if v := head[len(magic)]; v != formatVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	b, crc, readErr := readRest(r, head[:])
	d := &snapDecoder{b: b, off: len(head), end: io.ErrUnexpectedEOF}
	if readErr != nil {
		d.end = readErr
	}
	root := newRoot()
	stack := []openDir{{path: "/", n: root}}
	for {
		k, err := d.next(1)
		if err != nil {
			return nil, err
		}
		kind := k[0]
		if kind == entryEnd {
			break
		}
		if kind != entryDir && kind != entryFile {
			return nil, fmt.Errorf("unknown entry kind %d", kind)
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if plen == 0 || plen > maxPathLen {
			return nil, fmt.Errorf("path length %d out of range", plen)
		}
		pb, err := d.next(plen)
		if err != nil {
			return nil, err
		}
		p := string(pb)
		if p[0] != '/' || p == "/" || path.Clean(p) != p {
			return nil, fmt.Errorf("entry %q: not a canonical absolute path", p)
		}
		dir, name := path.Dir(p), path.Base(p)
		for len(stack) > 0 && stack[len(stack)-1].path != dir {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("entry %q: parent %q is not a directory earlier in walk order", p, dir)
		}
		parent := &stack[len(stack)-1]
		if name <= parent.last {
			return nil, fmt.Errorf("entry %q: duplicate or out of walk order", p)
		}
		parent.last = name
		n := &node{name: name}
		if kind == entryDir {
			n.isDir = true
			n.mode = fs.ModeDir | 0o755
			n.children = make(map[string]*node)
		} else {
			mode, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if mode > math.MaxUint32 {
				return nil, fmt.Errorf("entry %q: mode %#x out of range", p, mode)
			}
			n.mode = fs.FileMode(mode)
			size, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if size > math.MaxInt {
				return nil, fmt.Errorf("entry %q: file length %d out of range", p, size)
			}
			if n.data, err = d.next(size); err != nil {
				return nil, fmt.Errorf("entry %q: %w", p, err)
			}
		}
		parent.n.children[name] = n
		if n.isDir {
			stack = append(stack, openDir{path: p, n: n})
		}
	}
	sum, err := d.next(4)
	if err != nil {
		return nil, err
	}
	if d.off != len(b) { // crc stops short of the input's end, not of this trailer
		crc = crc32.Checksum(b[:d.off-len(sum)], castagnoli)
	}
	if got := binary.BigEndian.Uint32(sum); got != crc {
		return nil, fmt.Errorf("checksum mismatch: trailer %08x, content %08x", got, crc)
	}
	if d.off != len(b) {
		return nil, errors.New("trailing bytes after the snapshot")
	}
	return root, readErr // a read error after a whole snapshot still fails the load
}

// readRest reads r after its header into one buffer starting with head,
// sized by Len (in-memory readers) or Stat (files) and grown only if the
// input is longer. The CRC covers all but the last four bytes, summing
// each read while it is in cache. A read error ends the input early.
func readRest(r io.Reader, head []byte) ([]byte, uint32, error) {
	hint := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		hint = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if st, err := r.Stat(); err == nil {
			hint = int(max(st.Size()-int64(len(head)), 0))
		}
	}
	b := append(make([]byte, 0, len(head)+hint+1), head...) // +1: see EOF without growing
	var crc uint32
	for summed := 0; ; {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), len(b)+ioBufSize)])
		b = b[:len(b)+n]
		if end := len(b) - 4; end > summed {
			crc = crc32.Update(crc, castagnoli, b[summed:end])
			summed = end
		}
		if err == io.EOF {
			return b, crc, nil
		} else if err != nil {
			return b, crc, err
		}
	}
}

// snapDecoder decodes a snapshot held whole in memory. Running out of
// bytes fails with end: io.ErrUnexpectedEOF, as a snapshot ends only
// after its trailer, or the read error that cut the input short.
type snapDecoder struct {
	b   []byte
	off int
	end error
}

// next returns the next n bytes, capacity-capped so that appending to
// them never writes over the bytes that follow.
func (d *snapDecoder) next(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.off) {
		return nil, d.end
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off : d.off], nil
}

// uvarint reads a minimally encoded uvarint, so that every value has
// exactly one encoding and Save reproduces the bytes Load accepted.
func (d *snapDecoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b[d.off:])
	if n == 0 && len(d.b)-d.off < binary.MaxVarintLen64 {
		return 0, d.end
	}
	if n <= 0 {
		return 0, errors.New("varint overflows 64 bits")
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		return 0, errors.New("non-minimal varint")
	}
	d.off += n
	return x, nil
}
