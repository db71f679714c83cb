package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	want := []byte("hello world")
	if err := fs.WriteFile("/a/b/c.txt", want, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/a/b/c.txt")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestWriteFileCreatesParents(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/x/y/z/file", []byte("data"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	for _, dir := range []string{"/x", "/x/y", "/x/y/z"} {
		if !fs.IsDir(dir) {
			t.Errorf("expected directory %s", dir)
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	fs := New()
	_, err := fs.ReadFile("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("got %v, want ErrNotExist", err)
	}
}

func TestReadDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/dir"); !errors.Is(err, ErrIsDir) {
		t.Errorf("got %v, want ErrIsDir", err)
	}
}

func TestWriteOverDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/dir", []byte("x"), 0o644); !errors.Is(err, ErrIsDir) {
		t.Errorf("got %v, want ErrIsDir", err)
	}
}

func TestMkdirOverFileFails(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Errorf("got %v, want ErrNotDir", err)
	}
}

func TestWriteFileCopiesInput(t *testing.T) {
	fs := New()
	data := []byte("mutable")
	if err := fs.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'm' {
		t.Error("stored data aliases caller's buffer")
	}
}

// TestReadFileSharedSurvivesRewrite reads a file without a copy, then
// rewrites it: the bytes already read stay the old contents, and an
// append to them cannot write into the filesystem's copy.
func TestReadFileSharedSurvivesRewrite(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFileShared("/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("shared read changed to %q after a rewrite, want %q", got, "old")
	}
	if cap(got) != len(got) {
		t.Errorf("shared read has capacity %d beyond its %d bytes", cap(got), len(got))
	}
	if _, err := fs.ReadFileShared("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("shared read of a missing file: %v, want ErrNotExist", err)
	}
	if err := fs.MkdirAll("/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFileShared("/dir"); !errors.Is(err, ErrIsDir) {
		t.Errorf("shared read of a directory: %v, want ErrIsDir", err)
	}
}

func TestStat(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/f.txt", []byte("12345"), 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/a/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if st.IsDir || st.Size != 5 || st.Name != "f.txt" {
		t.Errorf("unexpected stat %+v", st)
	}
}

func TestExists(t *testing.T) {
	fs := New()
	if fs.Exists("/nope") {
		t.Error("missing path reported as existing")
	}
	if err := fs.WriteFile("/yes", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/yes") {
		t.Error("existing path reported as missing")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	for _, name := range []string{"c", "a", "b"} {
		if err := fs.WriteFile("/d/"+name, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries", len(entries))
	}
	for i, want := range []string{"a", "b", "c"} {
		if entries[i].Name != want {
			t.Errorf("entry %d = %q, want %q", i, entries[i].Name, want)
		}
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/f") {
		t.Error("file still exists after Remove")
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("got %v, want ErrNotEmpty", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/d/sub/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d") {
		t.Error("tree still exists after RemoveAll")
	}
	// Removing a missing path is not an error.
	if err := fs.RemoveAll("/missing"); err != nil {
		t.Errorf("RemoveAll missing: %v", err)
	}
}

func TestWalkOrder(t *testing.T) {
	fs := New()
	paths := []string{"/a/1", "/a/2", "/b/x/y", "/c"}
	for _, p := range paths {
		if err := fs.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.Walk("/", func(st Stat) error {
		visited = append(visited, st.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/1", "/a/2", "/b", "/b/x", "/b/x/y", "/c"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("visit %d = %s, want %s", i, visited[i], want[i])
		}
	}
}

func TestWalkStopsOnError(t *testing.T) {
	fs := New()
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	sentinel := errors.New("stop")
	err := fs.Walk("/", func(Stat) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("got %v, want sentinel", err)
	}
	if count != 3 {
		t.Errorf("visited %d entries, want 3", count)
	}
}

func TestCloneIndependence(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("original"), 0o644); err != nil {
		t.Fatal(err)
	}
	clone := fs.Clone()
	if err := clone.WriteFile("/f", []byte("modified"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Error("mutating clone changed the original")
	}
}

func TestDigestDeterministic(t *testing.T) {
	build := func() *FS {
		fs := New()
		_ = fs.WriteFile("/a/f1", []byte("one"), 0o644)
		_ = fs.WriteFile("/b/f2", []byte("two"), 0o644)
		return fs
	}
	d1, err := build().Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := build().Digest("/")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("identical trees produced different digests")
	}
}

func TestDigestSensitivity(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("one"), 0o644)
	d1, _ := fs.Digest("/")
	_ = fs.WriteFile("/f", []byte("two"), 0o644)
	d2, _ := fs.Digest("/")
	if d1 == d2 {
		t.Error("content change did not change digest")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/a/b/file1", []byte("data1"), 0o644)
	_ = fs.WriteFile("/c/file2", []byte("data2"), 0o755)
	_ = fs.MkdirAll("/empty/dir")
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored := New()
	if err := restored.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	d1, _ := fs.Digest("/")
	d2, _ := restored.Digest("/")
	if d1 != d2 {
		t.Error("roundtrip changed tree digest")
	}
	if !restored.IsDir("/empty/dir") {
		t.Error("empty directory lost in roundtrip")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	fs := New()
	if err := fs.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("expected error loading garbage")
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("a/b", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Relative and messy paths resolve against root.
	for _, p := range []string{"/a/b", "a/b", "/a/./b", "/a//b"} {
		if _, err := fs.ReadFile(p); err != nil {
			t.Errorf("ReadFile(%q): %v", p, err)
		}
	}
}

func TestQuickWriteReadRoundtrip(t *testing.T) {
	fs := New()
	i := 0
	prop := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/q/%d", i)
		if err := fs.WriteFile(p, data, 0o644); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDigestStableUnderClone(t *testing.T) {
	fs := New()
	n := 0
	prop := func(data []byte) bool {
		n++
		_ = fs.WriteFile(fmt.Sprintf("/p/%d", n), data, 0o644)
		d1, err1 := fs.Digest("/")
		d2, err2 := fs.Clone().Digest("/")
		return err1 == nil && err2 == nil && d1 == d2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOpsCounter pins the operation accounting the store's vfs-op pins
// depend on: public calls increment the counter, and a Clone starts from zero.
func TestOpsCounter(t *testing.T) {
	fs := New()
	base := fs.Ops()
	if err := fs.WriteFile("/a/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/a/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Ops() <= base {
		t.Fatalf("ops did not advance: %d -> %d", base, fs.Ops())
	}
	if c := fs.Clone(); c.Ops() != 0 {
		t.Errorf("clone inherited the op counter: %d", c.Ops())
	}
}
