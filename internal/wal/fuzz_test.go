package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"lsmlab/internal/kv"
)

// frameOf wraps a payload in a valid header: the CRC matches, so only
// the payload decoder stands between these bytes and the caller.
func frameOf(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

// hugeCountFrame claims 2^62 ops in a two-byte body.
func hugeCountFrame() []byte {
	p := binary.AppendUvarint(nil, 1)
	return frameOf(binary.AppendUvarint(p, 1<<62))
}

// hugeLenFrame holds one op whose key length is 2^63: as an int it is
// negative, so an int comparison against the payload length passes.
func hugeLenFrame() []byte {
	p := binary.AppendUvarint(nil, 1)
	p = binary.AppendUvarint(p, 1)
	p = append(p, byte(kv.KindSet))
	p = binary.AppendUvarint(p, 1<<63)
	return frameOf(append(p, "padding"...))
}

// TestDecodeFrameHostileLengths: the follower decodes frames a leader
// shipped, so a CRC-valid frame with absurd counts must be ErrCorrupt,
// never a panic.
func TestDecodeFrameHostileLengths(t *testing.T) {
	for name, frame := range map[string][]byte{
		"op count 2^62":   hugeCountFrame(),
		"key length 2^63": hugeLenFrame(),
	} {
		if _, err := DecodeFrame(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder, and the
// same bytes behind a valid header at the payload decoder. The
// invariants: no panic, every failure is ErrCorrupt, and a successful
// decode re-encodes to a frame that decodes to the same batch.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Batch{Seq: 1}).appendFrame(nil))
	f.Add(mkBatch(7, "a", "b", "c").appendFrame(nil))
	f.Add((&Batch{Seq: 9, Ops: []Op{{Kind: kv.KindRangeDelete, Key: []byte("a"), Value: []byte("m")}}}).appendFrame(nil))
	f.Add(hugeCountFrame())
	f.Add(hugeLenFrame())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, frameOf(data)} {
			b, err := DecodeFrame(frame)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode error %v is not ErrCorrupt", err)
				}
				continue
			}
			again, err := DecodeFrame(b.appendFrame(nil))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if again.Seq != b.Seq || len(again.Ops) != len(b.Ops) {
				t.Fatalf("round trip changed the batch: %d/%d ops, seq %d/%d",
					len(again.Ops), len(b.Ops), again.Seq, b.Seq)
			}
			for i, op := range b.Ops {
				if g := again.Ops[i]; g.Kind != op.Kind || !bytes.Equal(g.Key, op.Key) || !bytes.Equal(g.Value, op.Value) {
					t.Fatalf("round trip changed op %d", i)
				}
			}
		}
	})
}
