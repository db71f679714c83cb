package vfs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sampleFS is a small tree with nested and empty directories, files of
// several modes, an empty file, a long path and a file grown by Append.
func sampleFS(t testing.TB) *FS {
	t.Helper()
	f := New()
	for _, w := range []struct {
		p    string
		data string
		mode fs.FileMode
	}{
		{"/a/b/file1", "data1", 0o644},
		{"/a/b/c/deep", "deep file", 0o600},
		{"/c/file2", "data2", 0o755},
		{"/c/empty", "", 0o644},
		{"/z", strings.Repeat("z", 300), 0o444},
		{"/c/" + strings.Repeat("long-name", 40), "x", 0o644},
	} {
		if err := f.WriteFile(w.p, []byte(w.data), w.mode); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.MkdirAll("/empty/dir"); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"rec1|", "rec2|"} {
		if _, err := f.Append("/a/journal", []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func snapshotOf(t testing.TB, f *FS) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func mustDigest(t testing.TB, f *FS) string {
	t.Helper()
	d, err := f.Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// modes lists every entry's path, kind and mode in Walk order.
func modes(t testing.TB, f *FS) string {
	t.Helper()
	var b strings.Builder
	if err := f.Walk("/", func(st Stat) error {
		fmt.Fprintf(&b, "%s %t %v\n", st.Path, st.IsDir, st.Mode)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// encodeSnapshot frames hand-built entry bytes as a snapshot: magic,
// body, end marker and a valid checksum.
func encodeSnapshot(body []byte) []byte {
	out := append([]byte(magic), formatVersion)
	out = append(out, body...)
	out = append(out, entryEnd)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func dirEntry(p string) []byte {
	b := binary.AppendUvarint([]byte{entryDir}, uint64(len(p)))
	return append(b, p...)
}

func fileEntry(p string, mode uint64, data string) []byte {
	b := binary.AppendUvarint([]byte{entryFile}, uint64(len(p)))
	b = append(b, p...)
	b = binary.AppendUvarint(b, mode)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestSaveLoadExact pins the round trip: paths, entry kinds, file bytes
// and file modes survive, and saving the loaded tree reproduces the
// snapshot byte for byte.
func TestSaveLoadExact(t *testing.T) {
	src := sampleFS(t)
	snap := snapshotOf(t, src)
	dst := New()
	if err := dst.Load(bytes.NewReader(snap)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if mustDigest(t, dst) != mustDigest(t, src) {
		t.Error("round trip changed the tree digest")
	}
	if got, want := modes(t, dst), modes(t, src); got != want {
		t.Errorf("round trip changed kinds or modes:\ngot\n%s\nwant\n%s", got, want)
	}
	if again := snapshotOf(t, dst); !bytes.Equal(again, snap) {
		t.Error("saving the loaded tree did not reproduce the snapshot")
	}
	if got := snapshotOf(t, New()); !bytes.Equal(got, encodeSnapshot(nil)) {
		t.Errorf("empty FS snapshot = %x", got)
	}
}

// growWriter records the Grow calls Save makes and the bytes it writes.
type growWriter struct {
	grows   []int
	written int
}

func (g *growWriter) Grow(n int) { g.grows = append(g.grows, n) }

func (g *growWriter) Write(p []byte) (int, error) {
	g.written += len(p)
	return len(p), nil
}

// TestSaveGrowsWriterOnce: a writer that can reserve room is grown once,
// before the first write, by exactly the snapshot's size, including
// multi-byte varints.
func TestSaveGrowsWriterOnce(t *testing.T) {
	f := sampleFS(t)
	if err := f.WriteFile("/big", make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, fsys := range []*FS{New(), f} {
		var g growWriter
		if err := fsys.Save(&g); err != nil {
			t.Fatal(err)
		}
		if len(g.grows) != 1 || g.grows[0] != g.written {
			t.Errorf("Grow calls %v for a %d-byte snapshot, want one of exactly that size", g.grows, g.written)
		}
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 + 5} {
		if got, want := uvarintLen(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestSaveRejectsLongPath: a path Load would reject fails the Save, so
// a caller never replaces a loadable state with an unloadable one.
func TestSaveRejectsLongPath(t *testing.T) {
	f := New()
	if err := f.WriteFile("/"+strings.Repeat("p", maxPathLen), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(io.Discard); err == nil || !strings.Contains(err.Error(), "longer than 4096 bytes") {
		t.Fatalf("Save = %v, want a path length error", err)
	}
}

// TestLoadLargeFirstFile round-trips a file far larger than the bytes
// read before it, which Load must grow into step by step.
func TestLoadLargeFirstFile(t *testing.T) {
	big := make([]byte, 5*trustedLen+7)
	for i := range big {
		big[i] = byte(i * 31)
	}
	src := New()
	if err := src.WriteFile("/big", big, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Load(bytes.NewReader(snapshotOf(t, src))); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got, err := dst.ReadFile("/big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large file did not round-trip (err %v, %d of %d bytes)", err, len(got), len(big))
	}
}

// TestLoadRejectsMalformed covers each structural check Load makes on
// otherwise well-framed input, and that a failed Load changes nothing.
func TestLoadRejectsMalformed(t *testing.T) {
	var gobEra bytes.Buffer
	type snapshotEntry struct {
		Path    string
		IsDir   bool
		Mode    fs.FileMode
		ModTime time.Time
		Data    []byte
	}
	if err := gob.NewEncoder(&gobEra).Encode([]snapshotEntry{{Path: "/a", IsDir: true}}); err != nil {
		t.Fatal(err)
	}
	valid := encodeSnapshot(concat(dirEntry("/a"), fileEntry("/a/f", 0o644, "x")))
	badVersion := bytes.Clone(valid)
	badVersion[len(magic)] = formatVersion + 1
	cases := []struct {
		name, want string
		in         []byte
	}{
		{"empty", "not a fex state snapshot", nil},
		{"gob era", "not a fex state snapshot", gobEra.Bytes()},
		{"version", "unsupported snapshot version", badVersion},
		{"unknown kind", "unknown entry kind 7", encodeSnapshot([]byte{7, 2, '/', 'a'})},
		{"relative path", "not a canonical absolute path", encodeSnapshot(dirEntry("a"))},
		{"unclean path", "not a canonical absolute path", encodeSnapshot(concat(dirEntry("/a"), dirEntry("/a/../b")))},
		{"root entry", "not a canonical absolute path", encodeSnapshot(dirEntry("/"))},
		{"empty path", "path length 0", encodeSnapshot([]byte{entryDir, 0})},
		{"long path", "path length 4097", encodeSnapshot(dirEntry("/" + strings.Repeat("p", maxPathLen)))},
		{"missing parent", "is not a directory earlier", encodeSnapshot(fileEntry("/a/f", 0o644, "x"))},
		{"file parent", "is not a directory earlier", encodeSnapshot(concat(fileEntry("/a", 0o644, ""), fileEntry("/a/f", 0o644, "x")))},
		{"duplicate", "duplicate or out of walk order", encodeSnapshot(concat(dirEntry("/a"), dirEntry("/a")))},
		{"unsorted", "duplicate or out of walk order", encodeSnapshot(concat(dirEntry("/b"), dirEntry("/a")))},
		{"closed parent", "is not a directory earlier", encodeSnapshot(concat(dirEntry("/a"), dirEntry("/b"), dirEntry("/a/c")))},
		{"mode range", "mode 0x100000000 out of range", encodeSnapshot(fileEntry("/f", 1<<32, ""))},
		{"non-minimal varint", "non-minimal varint", encodeSnapshot([]byte{entryDir, 0x82, 0x00, '/', 'a'})},
		{"varint overflow", "varint overflows", encodeSnapshot(concat([]byte{entryDir}, bytes.Repeat([]byte{0xff}, 10)))},
		{"checksum", "checksum mismatch", append(valid[:len(valid)-1:len(valid)-1], valid[len(valid)-1]^1)},
		{"trailing", "trailing bytes", append(bytes.Clone(valid), 0)},
		{"truncated", "unexpected EOF", valid[:len(valid)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := sampleFS(t)
			before := mustDigest(t, f)
			err := f.Load(bytes.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "vfs load: ") {
				t.Fatalf("Load = %v, want an error containing %q", err, tc.want)
			}
			if mustDigest(t, f) != before {
				t.Error("failed Load changed the filesystem")
			}
		})
	}
	if err := New().Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the unmodified valid snapshot failed to load: %v", err)
	}
}

// TestLoadRejectsEveryTruncation cuts a multi-file snapshot at every
// offset and flips every byte: each damaged input must fail to load and
// leave the non-empty target untouched.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	snap := snapshotOf(t, sampleFS(t))
	target := New()
	if err := target.WriteFile("/keep/me", []byte("previous state"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := mustDigest(t, target)
	check := func(what string, in []byte) {
		t.Helper()
		if err := target.Load(bytes.NewReader(in)); err == nil {
			t.Fatalf("%s: Load succeeded", what)
		}
		if mustDigest(t, target) != before {
			t.Fatalf("%s: failed Load changed the filesystem", what)
		}
	}
	for n := 0; n < len(snap); n++ {
		check(fmt.Sprintf("prefix %d of %d", n, len(snap)), snap[:n])
	}
	for i := range snap {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			flipped := bytes.Clone(snap)
			flipped[i] ^= mask
			check(fmt.Sprintf("byte %d ^ %#x", i, mask), flipped)
		}
	}
}

// TestLoadAllocationBound feeds a header claiming a 2^40-byte file: Load
// must fail having allocated a small fraction of a MiB, not the claim.
func TestLoadAllocationBound(t *testing.T) {
	in := append([]byte(magic), formatVersion)
	in = append(in, fileEntry("/huge", 0o644, "")...)
	in = in[:len(in)-1] // drop the zero length
	in = binary.AppendUvarint(in, 1<<40)
	in = append(in, "only a few bytes follow"...)
	f := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f.Load(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Load = %v, want unexpected EOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 512<<10 {
		t.Errorf("Load allocated %d bytes for a 2^40-byte claim, want < 512 KiB", d)
	}
}

// TestSaveLoadCountOneOp pins the vfs op accounting of state I/O: a
// Save and a Load are one filesystem operation each, whatever the size.
func TestSaveLoadCountOneOp(t *testing.T) {
	src := sampleFS(t)
	base := src.Ops()
	snap := snapshotOf(t, src)
	if got := src.Ops() - base; got != 1 {
		t.Errorf("Save counted %d ops, want 1", got)
	}
	dst := New()
	base = dst.Ops()
	if err := dst.Load(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Ops() - base; got != 1 {
		t.Errorf("Load counted %d ops, want 1", got)
	}
}

// TestSaveConcurrentWriters saves repeatedly while writers replace files
// and appenders extend one: Save must take the read lock only once (a
// writer queued between two read locks would deadlock it), and every
// snapshot must load back with the appended file intact.
func TestSaveConcurrentWriters(t *testing.T) {
	f := New()
	for i := 0; i < 2000; i++ {
		if err := f.WriteFile(fmt.Sprintf("/d%02d/f%04d", i%20, i), []byte("initial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = f.WriteFile(fmt.Sprintf("/d%02d/f%04d", i%20, (i*7+w)%2000), []byte(fmt.Sprint("rewrite ", i)), 0o644)
			}
		}(w)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = f.Append("/journal", []byte("ab"))
			}
		}()
	}
	saved := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := f.Save(&buf); err != nil {
				saved <- err
				return
			}
			back := New()
			if err := back.Load(&buf); err != nil {
				saved <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
			if j, err := back.ReadFile("/journal"); err == nil && string(j) != strings.Repeat("ab", len(j)/2) {
				saved <- fmt.Errorf("snapshot %d: torn journal %q", i, j)
				return
			}
		}
		saved <- nil
	}()
	select {
	case err := <-saved:
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(stop)
		t.Fatal("Save did not finish within 10s next to concurrent writers (deadlock?)")
	}
}

// TestCloneAppendIndependent pins Clone's byte sharing: the clone's file
// shares the original's backing array, yet appends on either side, even
// into the original's spare capacity, stay invisible to the other.
func TestCloneAppendIndependent(t *testing.T) {
	f := New()
	for _, s := range []string{"aaaaa", "b"} {
		if _, err := f.Append("/f", []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	orig := f.root.children["f"].data
	if cap(orig) == len(orig) {
		t.Fatalf("setup: file has no spare capacity (len %d)", len(orig))
	}
	clone := f.Clone()
	if shared := clone.root.children["f"].data; &shared[0] != &orig[0] {
		t.Error("clone copied the file's bytes instead of sharing them")
	}
	if _, err := f.Append("/f", []byte("O")); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Append("/f", []byte("C")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fs   *FS
		want string
	}{{f, "aaaaabO"}, {clone, "aaaaabC"}} {
		got, err := c.fs.ReadFile("/f")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load: it must not panic, a failure
// must leave the target unchanged, and whatever loads must save back to
// exactly the input (the format has one encoding per tree).
func FuzzLoad(f *testing.F) {
	snap := snapshotOf(f, sampleFS(f))
	f.Add(snap)
	for _, n := range []int{0, 4, len(magic) + 1, len(snap) / 2, len(snap) - 5, len(snap) - 1} {
		f.Add(snap[:n])
	}
	f.Add(encodeSnapshot(nil))
	var gobEra bytes.Buffer
	_ = gob.NewEncoder(&gobEra).Encode([]struct{ Path string }{{"/a"}})
	f.Add(gobEra.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		target := New()
		if err := target.WriteFile("/keep", []byte("previous"), 0o600); err != nil {
			t.Fatal(err)
		}
		before := mustDigest(t, target)
		if err := target.Load(bytes.NewReader(in)); err != nil {
			if mustDigest(t, target) != before {
				t.Fatalf("failed Load (%v) changed the filesystem", err)
			}
			return
		}
		if out := snapshotOf(t, target); !bytes.Equal(out, in) {
			t.Fatalf("Save after Load = %x, want the input %x", out, in)
		}
	})
}

// benchFS builds a store-shaped tree: files of 4,426 B (the result
// store's bytes per record) spread over 100 directories.
func benchFS(b *testing.B, files int) *FS {
	b.Helper()
	f := New()
	data := make([]byte, 4426)
	for i := 0; i < files; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		if err := f.WriteFile(fmt.Sprintf("/fex/store/%02x/rec-%06d", i%100, i), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkStateSaveLoad measures saving and loading the state against
// store size.
func BenchmarkStateSaveLoad(b *testing.B) {
	for _, files := range []int{1000, 10000} {
		f := benchFS(b, files)
		snap := snapshotOf(b, f)
		b.Run(fmt.Sprintf("files=%d/save", files), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(snap)))
			var buf bytes.Buffer
			buf.Grow(len(snap))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := f.Save(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("files=%d/load", files), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(snap)))
			for i := 0; i < b.N; i++ {
				if err := New().Load(bytes.NewReader(snap)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var cloneSink *FS

// BenchmarkClone measures cloning a store-shaped tree, the cost of
// provisioning one cluster worker.
func BenchmarkClone(b *testing.B) {
	for _, files := range []int{1000, 10000} {
		f := benchFS(b, files)
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cloneSink = f.Clone()
			}
		})
	}
}
