//go:build linux

package vfs

import "testing"

// OSFS.Open reads with pread; Mapped maps a non-empty OSFS file and
// returns an empty one, or a file of another filesystem, as is.
func TestMappedMapsNonEmptyOSFiles(t *testing.T) {
	for _, tc := range []struct {
		size   int
		mapped bool
	}{{PageSize + 1, true}, {0, false}} {
		name, _ := writeOSFile(t, tc.size)
		f, err := NewOS().Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(osFile); !ok {
			t.Errorf("size %d: OSFS.Open returned %T, want a plain osFile", tc.size, f)
		}
		f = Mapped(f)
		if _, ok := f.(*mappedFile); ok != tc.mapped {
			t.Errorf("size %d: mapped = %v, want %v", tc.size, ok, tc.mapped)
		}
		f.Close()
	}

	fs := NewMem()
	w, err := fs.Create("m")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, PageSize+1))
	w.Close()
	f, err := fs.Open("m")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if g := Mapped(f); g != f {
		t.Errorf("Mapped(MemFS file) = %T, want the file itself", g)
	}
}
