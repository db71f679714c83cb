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
	"math/bits"
	"path"
	"slices"
	"time"
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
// directory is fs.ModeDir|0o755), and no entry carries a modification
// time: loaded entries take the FS clock's current time.
const (
	magic         = "fexvfs\x00"
	formatVersion = 1

	entryEnd  = 0
	entryDir  = 1
	entryFile = 2

	// maxPathLen bounds a stored path (PATH_MAX on Linux).
	maxPathLen = 4096
	// trustedLen is how far a file's length field may run ahead of the
	// bytes Load has read when it sizes the file's buffer.
	trustedLen = 64 << 10
	// ioBufSize is the buffer size of Save's writer and Load's reader.
	ioBufSize = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errNotSnapshot reports input that does not start with the snapshot
// magic, such as a state file written by an earlier repository version.
var errNotSnapshot = errors.New("not a fex state snapshot")

// snapEntry is one entry collected by Save. data aliases the node's
// bytes, which are never mutated in place (see node), so it stays valid
// after the lock is released.
type snapEntry struct {
	path string
	dir  bool
	mode fs.FileMode
	data []byte
}

// Save serializes the whole filesystem to w in the snapshot format
// above. The entries are collected under one read lock without copying
// file bytes; the encoding and the writes to w happen after the lock is
// released, so writers are never blocked on w. A w that can reserve
// room, such as a *bytes.Buffer, is first grown by the snapshot's exact
// size, so it allocates once instead of doubling its way through tens of
// megabytes, a cost that also swung from one Save to the next with the
// heap's state. It counts as one filesystem operation.
func (f *FS) Save(w io.Writer) error {
	var entries []snapEntry
	size := len(magic) + 1 + 1 + 4 // header, end marker, trailer
	err := f.walkTree("save", "/", func(p string, n *node) error {
		if len(p) > maxPathLen {
			// Load would reject it; fail now, while the previous state
			// file is still intact.
			return fmt.Errorf("path %.64q... is longer than %d bytes", p, maxPathLen)
		}
		entries = append(entries, snapEntry{path: p, dir: n.isDir, mode: n.mode, data: n.data})
		size += 1 + uvarintLen(uint64(len(p))) + len(p)
		if !n.isDir {
			size += uvarintLen(uint64(n.mode)) + uvarintLen(uint64(len(n.data))) + len(n.data)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("vfs save: %w", err)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size)
	}
	sw := &snapWriter{w: bufio.NewWriterSize(w, ioBufSize)}
	sw.write(append([]byte(magic), formatVersion))
	var hdr []byte
	for _, e := range entries {
		hdr = hdr[:0]
		if e.dir {
			hdr = append(hdr, entryDir)
		} else {
			hdr = append(hdr, entryFile)
		}
		hdr = binary.AppendUvarint(hdr, uint64(len(e.path)))
		hdr = append(hdr, e.path...)
		if !e.dir {
			hdr = binary.AppendUvarint(hdr, uint64(e.mode))
			hdr = binary.AppendUvarint(hdr, uint64(len(e.data)))
		}
		sw.write(hdr)
		if !e.dir {
			sw.write(e.data)
		}
	}
	sw.write([]byte{entryEnd})
	sw.write(binary.BigEndian.AppendUint32(nil, sw.crc))
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	if sw.err != nil {
		return fmt.Errorf("vfs save: write: %w", sw.err)
	}
	return nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// snapWriter checksums and buffers what Save writes, keeping the first
// write error.
type snapWriter struct {
	w   *bufio.Writer
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
	f.mu.RLock()
	now := f.now()
	f.mu.RUnlock()
	root, err := decode(r, now)
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

func decode(r io.Reader, now time.Time) (*node, error) {
	d := &snapReader{r: bufio.NewReaderSize(r, ioBufSize)}
	head := make([]byte, len(magic)+1)
	if err := d.readFull(head); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	} else if err != nil || string(head[:len(magic)]) != magic {
		return nil, errNotSnapshot
	}
	if v := head[len(magic)]; v != formatVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	root := newRoot()
	stack := []openDir{{path: "/", n: root}}
	pathBuf := make([]byte, 0, maxPathLen)
	for {
		kind, err := d.ReadByte()
		if err != nil {
			return nil, truncated(err)
		}
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
		pathBuf = pathBuf[:plen]
		if err := d.readFull(pathBuf); err != nil {
			return nil, truncated(err)
		}
		p := string(pathBuf)
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
		n := &node{name: name, modTime: now}
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
			if n.data, err = d.readData(size); err != nil {
				return nil, fmt.Errorf("entry %q: %w", p, err)
			}
		}
		parent.n.children[name] = n
		if n.isDir {
			stack = append(stack, openDir{path: p, n: n})
		}
	}
	want := d.crc
	var sum [4]byte
	if err := d.readFull(sum[:]); err != nil {
		return nil, truncated(err)
	}
	if got := binary.BigEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("checksum mismatch: trailer %08x, content %08x", got, want)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the snapshot")
		}
		return nil, err
	}
	return root, nil
}

// truncated turns an end of input inside the snapshot into
// io.ErrUnexpectedEOF: a snapshot ends only after its trailer.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// snapReader reads a snapshot, checksumming and counting every byte it
// consumes.
type snapReader struct {
	r   *bufio.Reader
	crc uint32
	n   uint64
	one [1]byte
}

func (d *snapReader) ReadByte() (byte, error) {
	b, err := d.r.ReadByte()
	if err == nil {
		d.one[0] = b
		d.crc = crc32.Update(d.crc, castagnoli, d.one[:])
		d.n++
	}
	return b, err
}

func (d *snapReader) readFull(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.crc = crc32.Update(d.crc, castagnoli, p[:n])
	d.n += uint64(n)
	return err
}

// uvarint reads a minimally encoded uvarint, so that every value has
// exactly one encoding and Save reproduces the bytes Load accepted.
func (d *snapReader) uvarint() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		b, err := d.ReadByte()
		if err != nil {
			return 0, truncated(err)
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, errors.New("non-minimal varint")
			}
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, errors.New("varint overflows 64 bits")
}

// readData reads a file's size bytes into a slice of exactly that size.
// A length field is trusted only as far as the input has backed it: one
// allocation step is at most trustedLen beyond the bytes read so far,
// and a longer file grows by such steps as its bytes arrive. A corrupt
// length therefore cannot allocate much more than the input holds.
func (d *snapReader) readData(size uint64) ([]byte, error) {
	if size > math.MaxInt {
		return nil, fmt.Errorf("file length %d out of range", size)
	}
	buf := make([]byte, 0, min(size, trustedLen+d.n))
	for uint64(len(buf)) < size {
		off := len(buf)
		step := int(min(size-uint64(off), trustedLen+d.n))
		buf = slices.Grow(buf, step)[:off+step]
		if err := d.readFull(buf[off:]); err != nil {
			return nil, truncated(err)
		}
	}
	return buf, nil
}
