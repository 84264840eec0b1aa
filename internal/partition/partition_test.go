package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lsmlab/internal/core"
	"lsmlab/internal/vfs"
)

func testStore(t *testing.T, n int) (*Store, core.Options) {
	t.Helper()
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "pdb")
	opts.BufferBytes = 8 << 10
	opts.BaseLevelBytes = 32 << 10
	s, err := Open(opts, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, opts
}

func TestBasicOps(t *testing.T) {
	s, _ := testStore(t, 4)
	if s.NumShards() != 4 {
		t.Fatal("partitions")
	}
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("get %d: %q %v", i, v, err)
		}
	}
	s.Delete([]byte("k050"))
	if _, err := s.Get([]byte("k050")); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("delete")
	}
}

func TestKeysSpreadAcrossPartitions(t *testing.T) {
	s, _ := testStore(t, 4)
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("key-%05d", i)), []byte("v"))
	}
	s.Flush()
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if s.Partition(i).DiskUsageBytes() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 4 {
		t.Errorf("only %d of 4 partitions hold data", nonEmpty)
	}
}

func TestScanMergesInOrder(t *testing.T) {
	s, _ := testStore(t, 3)
	model := map[string]string{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%04d", r.Intn(400))
		v := fmt.Sprintf("v%d", i)
		s.Put([]byte(k), []byte(v))
		model[k] = v
	}
	kvs, err := s.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(model) {
		t.Fatalf("scan %d, model %d", len(kvs), len(model))
	}
	prev := ""
	for _, kvp := range kvs {
		if string(kvp.Key) <= prev {
			t.Fatal("scan out of order")
		}
		prev = string(kvp.Key)
		if model[prev] != string(kvp.Value) {
			t.Fatalf("scan %s mismatch", prev)
		}
	}
	// Bounded scan with limit.
	kvs, _ = s.Scan([]byte("k0100"), []byte("k0200"), 10)
	if len(kvs) != 10 {
		t.Fatalf("limited scan %d", len(kvs))
	}
	for _, kvp := range kvs {
		if string(kvp.Key) < "k0100" || string(kvp.Key) >= "k0200" {
			t.Fatal("bounds")
		}
	}
}

func TestDeleteRangeAcrossPartitions(t *testing.T) {
	s, _ := testStore(t, 4)
	for i := 0; i < 200; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := s.DeleteRange([]byte("k050"), []byte("k150")); err != nil {
		t.Fatal(err)
	}
	kvs, _ := s.Scan(nil, nil, 0)
	if len(kvs) != 100 {
		t.Fatalf("after range delete: %d keys", len(kvs))
	}
}

func TestRecovery(t *testing.T) {
	fs := vfs.NewMem()
	opts := core.DefaultOptions(fs, "pdb")
	s, err := Open(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 300; i += 17 {
		v, err := s2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("recovered %d: %q %v", i, v, err)
		}
	}
}

func TestAggregateMetrics(t *testing.T) {
	s, _ := testStore(t, 2)
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	s.Get([]byte("k000"))
	m := s.Metrics()
	if m.Puts != 100 || m.Gets != 1 {
		t.Errorf("aggregate: %+v", m)
	}
	if s.DiskUsageBytes() == 0 {
		s.Flush()
		if s.DiskUsageBytes() == 0 {
			t.Error("no disk usage after flush")
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(core.DefaultOptions(vfs.NewMem(), "x"), -1); err == nil {
		t.Error("negative shard count accepted")
	}
}
