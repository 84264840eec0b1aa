package replica

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"testing"

	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite the REPL golden from this build's output")

// TestGoldenState pins the bytes of the REPL state file beside the other
// at-rest goldens in internal/record/testdata, and that they load back:
//
//	go test ./internal/replica -run TestGoldenState -update
func TestGoldenState(t *testing.T) {
	fs := vfs.NewMem()
	vec := []uint64{1, 301, 1 << 40}
	r := &Receiver{opts: ReceiverOptions{FS: fs, Dir: "f"}}
	if err := r.persist(vec); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(vfs.Join("f", stateName))
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	got := make([]byte, size)
	f.ReadAt(got, 0)
	f.Close()
	const path = "../record/testdata/REPL"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("REPL bytes %x, golden %x", got, want)
	}
	if back := loadState(fs, "f", len(vec)); back[1] != 301 || back[2] != 1<<40 {
		t.Fatalf("loaded %v", back)
	}
}

// FuzzDecodeState: the REPL decoder never panics, accepts only sealed
// vectors of the asked length, and round-trips what it accepts.
func FuzzDecodeState(f *testing.F) {
	f.Add(encodeState([]uint64{1, 301, 1 << 40}), 3)
	huge := binary.AppendUvarint([]byte(stateMagic), 1<<62)
	f.Add(record.Seal(append(huge, 5)), 3)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 0 || n > 1<<10 {
			return
		}
		vec, ok := decodeState(data, n)
		if !ok {
			return
		}
		if len(vec) != n {
			t.Fatalf("decoded %d entries, want %d", len(vec), n)
		}
		again, ok := decodeState(encodeState(vec), n)
		if !ok {
			t.Fatal("re-encoded state does not decode")
		}
		for i := range vec {
			if vec[i] < 1 || again[i] != vec[i] {
				t.Fatalf("entry %d: %d, round trip %d", i, vec[i], again[i])
			}
		}
	})
}
