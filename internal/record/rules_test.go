package record_test

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
)

// splitFrames cuts a log of whole frames into its frames.
func splitFrames(t *testing.T, log []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(log) > 0 {
		n := record.HeaderLen + int(binary.LittleEndian.Uint32(log))
		frames = append(frames, log[:n])
		log = log[n:]
	}
	if len(frames) != 3 {
		t.Fatalf("%d frames, want 3", len(frames))
	}
	return frames
}

// walFrames returns three WAL frames, batches of sequence 1, 2 and 3.
func walFrames(t *testing.T) [][]byte {
	fs := vfs.NewMem()
	f, _ := fs.Create("w")
	w := wal.NewWriter(f)
	for seq := 1; seq <= 3; seq++ {
		if _, err := w.Append(&wal.Batch{Seq: kv.SeqNum(seq), Ops: []wal.Op{{Kind: kv.KindSet, Key: []byte("k"), Value: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	return splitFrames(t, readAll(t, fs, "w"))
}

// manifestFrames returns three manifest snapshots, with NextFileNum 1,
// 2 and 3.
func manifestFrames(t *testing.T) [][]byte {
	fs := vfs.NewMem()
	st, _, err := manifest.OpenStore(fs, "M")
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 3; n++ {
		if err := st.Commit(testState(n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	return splitFrames(t, readAll(t, fs, "M"))
}

// TestTornTailRules pins what each caller of the one frame scanner makes
// of its four cases. The rules differ on purpose and are kept apart:
//
//   - WAL replay and the WAL cursor: an incomplete final frame, or a
//     whole final frame with a bad CRC, is a torn tail — the batches
//     before it are the log; a bad CRC with bytes after it is ErrCorrupt.
//   - manifest recovery: the first frame that is not complete ends the
//     log wherever it is, and the snapshot before it is recovered.
//   - manifest.Verify: an incomplete tail is tolerated, but a bad CRC on
//     any whole frame is corruption.
func TestTornTailRules(t *testing.T) {
	flip := func(f []byte) []byte { return flipLast(f) }
	half := func(f []byte) []byte { return f[:len(f)/2] }
	keep := func(f []byte) []byte { return f }
	for _, tc := range []struct {
		name          string
		second, third func([]byte) []byte
		batches       int  // WAL batches delivered by Replay and Cursor
		walCorrupt    bool // ...before ErrCorrupt (else a clean end)
		recovered     uint64
		verifyCorrupt bool
	}{
		{"complete", keep, keep, 3, false, 3, false},
		{"incomplete tail", keep, half, 2, false, 2, false},
		{"bad crc at tail", keep, flip, 2, false, 2, true},
		{"bad crc before tail", flip, keep, 1, true, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(frames [][]byte) []byte {
				return cat(frames[0], tc.second(frames[1]), tc.third(frames[2]))
			}
			fs := vfs.NewMem()
			fs.MkdirAll("wal")
			writeAll(t, fs, "wal/000001.wal", build(walFrames(t)))
			writeAll(t, fs, "MANIFEST", build(manifestFrames(t)))

			f, _ := fs.Open("wal/000001.wal")
			n := 0
			err := wal.Replay(f, func(b wal.Batch) error { n++; return nil })
			f.Close()
			if n != tc.batches || errors.Is(err, wal.ErrCorrupt) != tc.walCorrupt || (err != nil && !tc.walCorrupt) {
				t.Errorf("Replay: %d batches, err %v", n, err)
			}

			c := wal.NewCursor(fs, "wal")
			n = 0
			for ; ; n++ {
				if _, _, err = c.Next(); err != nil {
					break
				}
			}
			c.Close()
			if n != tc.batches || errors.Is(err, wal.ErrCorrupt) != tc.walCorrupt || (!tc.walCorrupt && err != io.EOF) {
				t.Errorf("Cursor: %d batches, then %v", n, err)
			}

			if err := manifest.Verify(fs, "MANIFEST"); errors.Is(err, manifest.ErrCorrupt) != tc.verifyCorrupt || (err != nil && !tc.verifyCorrupt) {
				t.Errorf("Verify = %v", err)
			}
			st, s, err := manifest.OpenStore(fs, "MANIFEST")
			if err != nil || s == nil || s.NextFileNum != tc.recovered {
				t.Fatalf("OpenStore recovered %+v, %v; want snapshot %d", s, err, tc.recovered)
			}
			st.Close()
		})
	}
}
