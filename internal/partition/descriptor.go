package partition

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lsmlab/internal/record"
	"lsmlab/internal/vfs"
)

// The store descriptor is the one durable record of a sharded store's
// shard count: a 16-byte file at the store root, the sealed record
//
//	magic "LSMSHRD1" | count uint32 LE | CRC-32C(magic|count) uint32 LE
//
// made durable before the first shard is created. Only stores of more
// than one shard have it.
const (
	descriptorName  = "SHARDS"
	descriptorMagic = "LSMSHRD1"
	descriptorLen   = len(descriptorMagic) + 8

	// maxShards bounds the count a descriptor may name and Open accept.
	maxShards = 1 << 16
)

func encodeDescriptor(n int) []byte {
	return record.Seal(binary.LittleEndian.AppendUint32([]byte(descriptorMagic), uint32(n)))
}

// decodeDescriptor returns the shard count b names: b must be exactly
// the encoding of a count in [2, maxShards], which covers length, magic,
// checksum and trailing bytes at once.
func decodeDescriptor(b []byte) (int, error) {
	if len(b) == descriptorLen {
		n := int(binary.LittleEndian.Uint32(b[len(descriptorMagic):]))
		if n >= 2 && n <= maxShards && bytes.Equal(b, encodeDescriptor(n)) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("not the checksummed encoding of a shard count in [2, %d]", maxShards)
}

// readDescriptor decodes the descriptor in dir; its errors name the file.
func readDescriptor(fs vfs.FS, dir string) (n int, err error) {
	name := vfs.Join(dir, descriptorName)
	f, err := fs.Open(name)
	if err != nil {
		return 0, fmt.Errorf("partition: open store descriptor %s: %w", name, err)
	}
	defer f.Close()
	buf := make([]byte, descriptorLen+1) // one past, so trailing bytes are seen
	got, err := f.ReadAt(buf, 0)
	if err == nil || errors.Is(err, io.EOF) {
		n, err = decodeDescriptor(buf[:got])
	}
	if err != nil {
		return 0, fmt.Errorf("partition: %s is not a valid store descriptor: %w", name, err)
	}
	return n, nil
}

// writeDescriptor durably records that dir holds an n-shard store.
func writeDescriptor(fs vfs.FS, dir string, n int) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	name := vfs.Join(dir, descriptorName)
	if err := vfs.WriteFileAtomic(fs, name, encodeDescriptor(n)); err != nil {
		return fmt.Errorf("partition: write store descriptor %s: %w", name, err)
	}
	return nil
}
