package record_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lsmlab/internal/record"
)

// memLog is a log held in memory.
type memLog []byte

func (m memLog) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m).ReadAt(p, off)
}

func (m memLog) Size() (int64, error) { return int64(len(m)), nil }

func frameOf(payload string) []byte {
	f := append(record.StartFrame(nil), payload...)
	record.FinishFrame(f)
	return f
}

func flipLast(frame []byte) []byte {
	f := append([]byte(nil), frame...)
	f[len(f)-1] ^= 0x01
	return f
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestScanCases: the scanner reports each of its four cases, with the
// offset of the frame it stopped at, and hands over only the payloads
// before it.
func TestScanCases(t *testing.T) {
	a, b, c := frameOf("alpha"), frameOf("bravo!"), frameOf("charlie")
	ab := int64(len(a) + len(b))
	huge := binary.LittleEndian.AppendUint32(nil, 1<<32-1)
	for _, tc := range []struct {
		name     string
		log      []byte
		payloads int
		off      int64
		st       record.Status
	}{
		{"empty", nil, 0, 0, record.Complete},
		{"complete", cat(a, b, c), 3, ab + int64(len(c)), record.Complete},
		{"short header at tail", cat(a, b, c[:record.HeaderLen-1]), 2, ab, record.Incomplete},
		{"short payload at tail", cat(a, b, c[:len(c)-1]), 2, ab, record.Incomplete},
		{"length past the end", cat(a, b, huge, c), 2, ab, record.Incomplete},
		{"bad crc at tail", cat(a, b, flipLast(c)), 2, ab, record.CorruptTail},
		{"bad crc before tail", cat(a, flipLast(b), c), 1, int64(len(a)), record.Corrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			off, st, err := record.Scan(memLog(tc.log), func(_ int64, p []byte) error {
				got = append(got, string(p))
				return nil
			})
			if err != nil || off != tc.off || st != tc.st || len(got) != tc.payloads {
				t.Fatalf("Scan = off %d, status %d, err %v, %d payloads; want off %d, status %d, %d payloads",
					off, st, err, len(got), tc.off, tc.st, tc.payloads)
			}
			for i, want := range []string{"alpha", "bravo!", "charlie"}[:len(got)] {
				if got[i] != want {
					t.Fatalf("payload %d = %q, want %q", i, got[i], want)
				}
			}
		})
	}
}

func TestUnframeUnseal(t *testing.T) {
	f := frameOf("payload")
	if p, ok := record.Unframe(f); !ok || string(p) != "payload" {
		t.Fatalf("Unframe = %q, %v", p, ok)
	}
	for name, bad := range map[string][]byte{
		"short":       f[:record.HeaderLen-1],
		"truncated":   f[:len(f)-1],
		"trailing":    append(append([]byte(nil), f...), 0),
		"bad crc":     flipLast(f),
		"huge length": append(binary.LittleEndian.AppendUint32(nil, 1<<32-1), f[4:]...),
	} {
		if _, ok := record.Unframe(bad); ok {
			t.Errorf("Unframe accepted %s frame", name)
		}
	}
	s := record.Seal([]byte("sealed"))
	if p, ok := record.Unseal(s); !ok || string(p) != "sealed" {
		t.Fatalf("Unseal = %q, %v", p, ok)
	}
	if _, ok := record.Unseal(flipLast(s)); ok {
		t.Error("Unseal accepted a bad checksum")
	}
	if _, ok := record.Unseal(s[:3]); ok {
		t.Error("Unseal accepted three bytes")
	}
}

// TestDecoderHostileLengths: lengths and counts the bytes cannot hold
// mark the payload corrupt instead of slicing or allocating, and every
// read after the first failure returns the zero value.
func TestDecoderHostileLengths(t *testing.T) {
	for name, payload := range map[string][]byte{
		"bytes 2^63":   append(binary.AppendUvarint(nil, 1<<63), "padding"...),
		"bytes 2^64-1": append(binary.AppendUvarint(nil, 1<<64-1), "padding"...),
		"count 2^62":   append(binary.AppendUvarint(nil, 1<<62), "padding"...),
	} {
		d := record.NewDecoder(payload)
		if name == "count 2^62" {
			if n := d.Count(1); n != 0 {
				t.Errorf("%s: Count = %d", name, n)
			}
		} else if b := d.Bytes(); b != nil {
			t.Errorf("%s: Bytes = %d bytes", name, len(b))
		}
		if !d.Corrupt() || d.Uvarint() != 0 || d.Byte() != 0 || d.Bytes() != nil {
			t.Errorf("%s: decoder not stuck at corrupt", name)
		}
	}
	d := record.NewDecoder(binary.AppendUvarint(append(binary.AppendUvarint(nil, 3), "abc"...), 2))
	if string(d.Bytes()) != "abc" || d.Count(1) != 0 || !d.Corrupt() {
		t.Error("Count(1) of 2 with no bytes left must be corrupt")
	}
}

// FuzzRecord throws arbitrary bytes at every reader of the package —
// as a log, as a frame, as a sealed record and as a payload — and the
// same bytes wrapped in a valid frame and seal. Nothing may panic;
// whatever Scan accepts re-frames to exactly the bytes it came from.
func FuzzRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(cat(frameOf("alpha"), frameOf("bravo")))
	f.Add(cat(frameOf("alpha"), flipLast(frameOf("bravo"))))
	f.Add(append(binary.AppendUvarint(nil, 1<<63), "padding"...))
	f.Add(record.Seal([]byte("sealed")))
	f.Fuzz(func(t *testing.T, data []byte) {
		wrapped := frameOf(string(data))
		for _, log := range [][]byte{data, wrapped} {
			var next int64
			off, st, err := record.Scan(memLog(log), func(off int64, p []byte) error {
				if off != next || !bytes.Equal(log[off:off+int64(record.HeaderLen+len(p))], frameOf(string(p))) {
					t.Fatalf("payload at %d does not re-frame to its bytes", off)
				}
				next = off + int64(record.HeaderLen+len(p))
				return nil
			})
			if err != nil || off != next || (st == record.Complete) != (off == int64(len(log))) {
				t.Fatalf("Scan = off %d, status %d, err %v after %d bytes of %d", off, st, err, next, len(log))
			}
		}
		if p, ok := record.Unframe(wrapped); !ok || !bytes.Equal(p, data) {
			t.Fatal("a valid frame did not unframe to its payload")
		}
		if p, ok := record.Unseal(record.Seal(append([]byte(nil), data...))); !ok || !bytes.Equal(p, data) {
			t.Fatal("a valid seal did not unseal to its payload")
		}
		if p, ok := record.Unframe(data); ok && !bytes.Equal(frameOf(string(p)), data) {
			t.Fatal("Unframe accepted bytes that are not one frame")
		}
		record.Unseal(data)

		// Drive the decoder with the bytes as both program and payload.
		d := record.NewDecoder(data)
		for i := 0; i < len(data) && !d.Corrupt(); i++ {
			switch data[i] % 6 {
			case 0:
				d.Uvarint()
			case 1:
				d.Varint()
			case 2:
				d.Bytes()
			case 3:
				d.Byte()
			case 4:
				d.Take(uint64(data[i]))
			case 5:
				d.Count(int(data[i]%8) + 1)
			}
		}
		if d.Corrupt() && (d.Uvarint() != 0 || d.Varint() != 0 || d.Bytes() != nil || d.Byte() != 0) {
			t.Fatal("a corrupt decoder returned data")
		}
	})
}
