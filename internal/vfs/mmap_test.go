package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeOSFile creates name under t.TempDir() holding n random bytes.
func writeOSFile(t *testing.T, n int) (string, []byte) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(data)
	name := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return name, data
}

// mapOSFile opens name with OSFS and maps it.
func mapOSFile(t *testing.T, name string) File {
	t.Helper()
	f, err := NewOS().Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return Mapped(f)
}

// errClass folds an error to what callers branch on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "EOF"
	default:
		return "error"
	}
}

// A mapped file returns what a plain os.File returns — count, error
// class and bytes — for reads inside the file, across its end and past
// it.
func TestMappedReadAtMatchesOSFile(t *testing.T) {
	const size = 3*PageSize + 123
	name, _ := writeOSFile(t, size)
	got := mapOSFile(t, name)
	defer got.Close()
	want, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(size + 2*PageSize)
		p := make([]byte, rng.Intn(3*PageSize))
		q := make([]byte, len(p))
		gn, gerr := got.ReadAt(p, off)
		wn, werr := want.ReadAt(q, off)
		if gn != wn || errClass(gerr) != errClass(werr) || !bytes.Equal(p[:gn], q[:wn]) {
			t.Fatalf("ReadAt(len %d, off %d) = %d, %v; os.File gives %d, %v", len(p), off, gn, gerr, wn, werr)
		}
	}
	if _, err := got.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset read without error")
	}
}

// A mapped file truncated under its reader reads as an error; the
// process survives the fault on the vanished pages.
func TestMappedFileTruncated(t *testing.T) {
	name, data := writeOSFile(t, 64<<10)
	f := mapOSFile(t, name)
	defer f.Close()
	if err := os.Truncate(name, 4<<10); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, PageSize)
	if n, err := f.ReadAt(p, 32<<10); err == nil || n == len(p) {
		t.Fatalf("read past the truncated end = %d, %v; want a short read with an error", n, err)
	}
	if n, err := f.ReadAt(p, 0); err != nil || !bytes.Equal(p[:n], data[:PageSize]) {
		t.Fatalf("read inside the kept prefix = %d, %v", n, err)
	}
}

// Bytes appended after Open — a WAL or value log growing under its
// reader — are readable, alone and together with the opening bytes.
func TestMappedReadsTailAppendedAfterOpen(t *testing.T) {
	name, data := writeOSFile(t, 10<<10)
	r := mapOSFile(t, name)
	defer r.Close()
	tail := bytes.Repeat([]byte{0xab}, 5<<10)
	w, err := NewOS().Append(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(tail); err != nil {
		t.Fatal(err)
	}
	w.Close()
	want := append(data, tail...)
	if sz, err := r.Size(); err != nil || sz != int64(len(want)) {
		t.Fatalf("Size after append = %d, %v; want %d", sz, err, len(want))
	}
	p := make([]byte, 6<<10)
	if n, err := r.ReadAt(p, 8<<10); err != nil || !bytes.Equal(p[:n], want[8<<10:14<<10]) {
		t.Fatalf("read across the open-time end = %d, %v", n, err)
	}
	p = make([]byte, 2<<10)
	if n, err := r.ReadAt(p, 12<<10); err != nil || !bytes.Equal(p[:n], want[12<<10:14<<10]) {
		t.Fatalf("read inside the appended tail = %d, %v", n, err)
	}
}

func TestMappedReadAfterClose(t *testing.T) {
	name, _ := writeOSFile(t, 2*PageSize)
	f := mapOSFile(t, name)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 16), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("ReadAt after Close = %v, want os.ErrClosed", err)
	}
	if err := f.Close(); err == nil {
		t.Error("second Close returned no error")
	}
}

func TestMappedEmptyFile(t *testing.T) {
	name, _ := writeOSFile(t, 0)
	f := mapOSFile(t, name)
	defer f.Close()
	if n, err := f.ReadAt(make([]byte, 8), 0); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt on an empty file = %d, %v; want 0, io.EOF", n, err)
	}
}
