package manifest

import (
	"encoding/binary"
	"errors"
	"testing"

	"lsmlab/internal/record"
)

// stateHeader encodes NextFileNum, LastSeq, one level and one run, up to
// the run's file count.
func stateHeader() []byte {
	var p []byte
	for _, v := range []uint64{7, 99, 1, 1} {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// hugeKeyState holds one file whose Smallest claims 2^63 bytes: as an
// int the length is negative, so an int bound check passes.
func hugeKeyState() []byte {
	p := binary.AppendUvarint(stateHeader(), 1) // one file
	p = binary.AppendUvarint(p, 5)              // Num
	p = binary.AppendUvarint(p, 4096)           // Size
	p = binary.AppendUvarint(p, 1<<63)          // len(Smallest)
	return append(p, "padding"...)
}

// hugeCountState claims 2^40 files in a run and 2^40 runs in a level.
func hugeCountState() [][]byte {
	files := append(binary.AppendUvarint(stateHeader(), 1<<40), "padding"...)
	runs := binary.AppendUvarint(nil, 7)
	runs = binary.AppendUvarint(runs, 99)
	runs = binary.AppendUvarint(runs, 1)
	runs = append(binary.AppendUvarint(runs, 1<<40), "padding"...)
	return [][]byte{files, runs}
}

// TestDecodeStateHostileLengths: a snapshot whose lengths or counts the
// payload cannot hold is ErrCorrupt — no panic, and no allocation in
// proportion to the claim.
func TestDecodeStateHostileLengths(t *testing.T) {
	for i, p := range append([][]byte{hugeKeyState()}, hugeCountState()...) {
		if _, err := decodeState(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("payload %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// FuzzDecodeState: the snapshot decoder never panics, fails only with
// ErrCorrupt, and whatever decodes re-encodes to a frame that decodes to
// the same state.
func FuzzDecodeState(f *testing.F) {
	payload, _ := record.Unframe(encodeFrame(makeState(5)))
	f.Add(payload)
	f.Add(hugeKeyState())
	for _, p := range hugeCountState() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeState(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		payload, ok := record.Unframe(encodeFrame(s))
		if !ok {
			t.Fatal("re-encoded snapshot is not a valid frame")
		}
		again, err := decodeState(payload)
		if err != nil || !statesEqual(s, again) {
			t.Fatalf("round trip changed the state: %v", err)
		}
	})
}
