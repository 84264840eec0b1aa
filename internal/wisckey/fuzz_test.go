package wisckey

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// hugeKeyRecord is a record payload whose key claims 2^63 bytes: as an
// int the length is negative, so an int bound check passes.
func hugeKeyRecord() []byte {
	p := binary.AppendUvarint(nil, 1<<63)
	p = binary.AppendUvarint(p, 1)
	return append(p, "padding"...)
}

// TestParseRecordHostileLengths: key and value lengths the record cannot
// hold are ErrCorrupt, never a panic.
func TestParseRecordHostileLengths(t *testing.T) {
	huge := hugeKeyRecord()
	vhuge := append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<64-1), "padding"...)
	for name, p := range map[string][]byte{"key 2^63": huge, "value 2^64-1": vhuge, "empty": nil} {
		if _, _, err := parseRecord(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// The same payload behind a valid checksum, as a whole segment.
	fs := vfs.NewMem()
	l, _ := Open(fs, ".")
	defer l.Close()
	frame := append(record.StartFrame(nil), huge...)
	record.FinishFrame(frame)
	f, _ := fs.Create(l.path(99))
	f.Write(frame)
	f.Close()
	if err := l.ScanFile(99, func(_, _ []byte, _ Pointer) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ScanFile = %v, want ErrCorrupt", err)
	}
}

// TestChecksumCatchesFlippedValue: a bit flipped inside a stored value
// fails Read and VerifyFile instead of being returned as data.
func TestChecksumCatchesFlippedValue(t *testing.T) {
	fs := vfs.NewMem()
	l, _ := Open(fs, ".")
	defer l.Close()
	p, err := l.Append([]byte("key"), bytes.Repeat([]byte("v"), 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyFile(p.FileNum); err != nil {
		t.Fatalf("clean segment: %v", err)
	}
	raw := make([]byte, p.Length)
	f, _ := fs.Open(l.path(p.FileNum))
	f.ReadAt(raw, int64(p.Offset))
	f.Close()
	raw[len(raw)-50] ^= 0x10
	f, _ = fs.Create(l.path(p.FileNum))
	f.Write(raw)
	f.Close()
	if v, err := l.Read(p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Read of a flipped value = %q, %v; want ErrCorrupt", v, err)
	}
	if err := l.VerifyFile(p.FileNum); !errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifyFile = %v, want ErrCorrupt", err)
	}
}

// FuzzParseRecord: the record decoder never panics and fails only with
// ErrCorrupt; whatever decodes appends and reads back unchanged.
func FuzzParseRecord(f *testing.F) {
	p := binary.AppendUvarint(nil, 3)
	p = binary.AppendUvarint(p, 5)
	f.Add(append(p, "keyvalue"...))
	f.Add(hugeKeyRecord())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, value, err := parseRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		l, _ := Open(vfs.NewMem(), ".")
		defer l.Close()
		ptr, err := l.Append(key, value)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Read(ptr)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("round trip changed the value: %v", err)
		}
	})
}
