package main

import (
	"bytes"
	"fmt"
	"time"

	"lsmlab/internal/admission"
	"lsmlab/internal/bloom"
	"lsmlab/internal/cache"
	"lsmlab/internal/compaction"
	"lsmlab/internal/core"
	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/memtable"
	"lsmlab/internal/partition"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
	"lsmlab/internal/wire"
)

// Layer probes: each times one layer's exported functions in isolation,
// at a fixed input and a fixed iteration count, and reports ns per
// call. They say what a layer costs by itself; the traced phase says
// how much of a request that is. A probe that cannot build its fixture
// panics: that is a broken benchmark, not a measurement.

const probeKeys = 100_000

var probeSink int // keeps results alive

// probeIters scales every probe's iteration count; 1 at benchmark
// scale, smaller under the smoke test. The fixtures keep their size.
var probeIters = 1.0

// iters scales an iteration count by probeIters.
func iters(n int) int {
	if n = int(float64(n) * probeIters); n < 16 {
		n = 16
	}
	return n
}

// timeN runs fn n times and returns nanoseconds per call.
func timeN(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark probe: %v", err))
	}
}

// probeData is the shared fixture: probeKeys keys in order, one value.
type probeData struct {
	keys [][]byte
	val  []byte
}

func newProbeData() *probeData {
	d := &probeData{keys: make([][]byte, probeKeys), val: make([]byte, valueLen)}
	for i := range d.keys {
		d.keys[i] = appendKey(nil, int64(i))
	}
	fillValue(d.val, 7, 1)
	return d
}

// pick spreads successive probe iterations over the key set.
func (d *probeData) pick(i int) []byte { return d.keys[(i*7919)%probeKeys] }

func runProbes(scale float64) []metric {
	probeIters = scale
	d := newProbeData()
	var ms []metric
	add := func(name string, nsPerOp float64, n int) {
		ms = append(ms, metric{name, nsPerOp, "ns", int64(n)})
	}
	probeWire(d, add)
	probeAdmission(add)
	probePartition(d, add)
	probeWAL(d, add)
	probeMemtable(d, add)
	probeSSTable(d, add)
	probeBloom(d, add)
	probeCache(add)
	probeMerge(d, add)
	probePicker(add)
	return ms
}

type addFn func(name string, nsPerOp float64, n int)

// probeWire times framing a 100 B PUT the three ways the serving path
// touches it: encode, decode from a buffer, read from a stream.
func probeWire(d *probeData, add addFn) {
	n := iters(500_000)
	payload := wire.AppendBytes(wire.AppendBytes(nil, d.keys[0]), d.val)
	var frame []byte
	add("wire.append_frame_ns", timeN(n, func(int) {
		frame = wire.AppendFrame(frame[:0], wire.OpPut, payload)
	}), n)
	add("wire.decode_frame_ns", timeN(n, func(int) {
		_, p, _, err := wire.DecodeFrame(frame, wire.DefaultMaxFrame)
		must(err)
		probeSink += len(p)
	}), n)
	const perBuf = 1000
	stream := bytes.Repeat(frame, perBuf)
	rd := bytes.NewReader(stream)
	var scratch []byte
	add("wire.read_frame_ns", timeN(n, func(i int) {
		if i%perBuf == 0 {
			rd.Reset(stream)
		}
		_, p, buf, err := wire.ReadFrame(rd, wire.DefaultMaxFrame, scratch)
		must(err)
		scratch = buf
		probeSink += len(p)
	}), n)
}

func probeAdmission(add addFn) {
	n := iters(500_000)
	roomy := admission.Quota{OpsPerSec: 1e9, BytesPerSec: 1e12}
	ctl := admission.NewController(admission.Config{Tenants: map[string]admission.Quota{"t0": roomy}})
	add("admission.admit_ns", timeN(n, func(int) {
		if !ctl.Admit("t0", 1, keyLen+valueLen).OK {
			panic("benchmark probe: roomy quota refused a request")
		}
	}), n)
	add("admission.charge_ns", timeN(n, func(int) { ctl.Charge("t0", valueLen) }), n)
}

// probePartition times what the router adds to a point read of a
// memtable-resident key, and a 16-key batch split across two shards.
func probePartition(d *probeData, add addFn) {
	const resident = 20_000
	n := iters(200_000)
	opts := core.DefaultOptions(vfs.NewMem(), "probe")
	opts.BufferBytes = 256 << 20 // nothing flushes: the probe is the router, not the tree
	s, err := partition.Open(opts, 2)
	must(err)
	defer s.Close()
	var b core.Batch
	for i := 0; i < resident; i++ {
		b.Put(d.keys[i], d.val)
		if b.Len() == loadBatch {
			must(s.Apply(&b))
			b.Reset()
		}
	}
	must(s.Apply(&b))
	shard := make([]*core.DB, resident)
	for i := range shard {
		shard[i] = s.Partition(int(bloom.Hash64(d.keys[i]) % 2))
	}
	get := func(i int) int { return (i * 7919) % resident }
	routed := timeN(n, func(i int) {
		v, err := s.Get(d.keys[get(i)])
		must(err)
		probeSink += len(v)
	})
	direct := timeN(n, func(i int) {
		v, err := shard[get(i)].Get(d.keys[get(i)])
		must(err)
		probeSink += len(v)
	})
	add("partition.get_overhead_ns", routed-direct, n)
	batches := iters(20_000)
	add("partition.apply_split16_ns", timeN(batches, func(i int) {
		b.Reset()
		for j := 0; j < 16; j++ {
			b.Put(d.pick(i*16+j), d.val)
		}
		must(s.Apply(&b))
	}), batches)
}

func probeWAL(d *probeData, add addFn) {
	n := iters(200_000)
	fs := vfs.NewMem()
	f, err := fs.Create("probe.wal")
	must(err)
	w := wal.NewWriter(f)
	one := &wal.Batch{Ops: []wal.Op{{Kind: kv.KindSet, Value: d.val}}}
	add("wal.append_ns", timeN(n, func(i int) {
		one.Seq = kv.SeqNum(i + 1)
		one.Ops[0].Key = d.pick(i)
		_, err := w.Append(one)
		must(err)
	}), n)
	must(f.Close())
	rf, err := fs.Open("probe.wal")
	must(err)
	replayed := 0
	t0 := time.Now()
	must(wal.Replay(rf, func(b wal.Batch) error { replayed++; return nil }))
	add("wal.replay_ns_per_batch", float64(time.Since(t0).Nanoseconds())/float64(replayed), replayed)
	must(rf.Close())

	groups := iters(20_000)
	g, err := fs.Create("group.wal")
	must(err)
	gw := wal.NewWriter(g)
	group := make([]*wal.Batch, 16)
	for j := range group {
		group[j] = &wal.Batch{Ops: []wal.Op{{Kind: kv.KindSet, Key: d.keys[j], Value: d.val}}}
	}
	add("wal.append_group16_ns", timeN(groups, func(i int) {
		for j := range group {
			group[j].Seq = kv.SeqNum(i*16 + j + 1)
		}
		_, err := gw.AppendGroup(group)
		must(err)
	}), groups)
	must(g.Close())
}

func probeMemtable(d *probeData, add addFn) {
	m := memtable.New(memtable.KindSkipList)
	add("memtable.add_ns", timeN(probeKeys, func(i int) {
		m.Add(kv.SeqNum(i+1), kv.KindSet, d.pick(i), d.val)
	}), probeKeys)
	gets := iters(probeKeys)
	add("memtable.get_ns", timeN(gets, func(i int) {
		e, ok := m.Get(d.pick(i+1), kv.MaxSeqNum)
		if !ok {
			panic("benchmark probe: memtable lost a key")
		}
		probeSink += len(e.Value)
	}), gets)
	it := m.NewIterator()
	n := 0
	t0 := time.Now()
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	add("memtable.iter_next_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	must(it.Close())
}

func probeSSTable(d *probeData, add addFn) {
	fs := vfs.NewMem()
	f, err := fs.Create("probe.sst")
	must(err)
	w := sstable.NewWriter(f, sstable.WriterOptions{BitsPerKey: 10})
	for i, k := range d.keys {
		must(w.Add(kv.MakeKey(k, kv.SeqNum(i+1), kv.KindSet), d.val))
	}
	_, err = w.Finish()
	must(err)
	must(f.Close())

	opens := iters(200)
	add("sstable.open_ns", timeN(opens, func(int) {
		rf, err := fs.Open("probe.sst")
		must(err)
		r, err := sstable.Open(rf, sstable.ReaderOptions{FileNum: 1})
		must(err)
		must(r.Close())
	}), opens)

	rf, err := fs.Open("probe.sst")
	must(err)
	r, err := sstable.Open(rf, sstable.ReaderOptions{FileNum: 1}) // no cache: every get fetches, verifies and decodes its block
	must(err)
	defer r.Close()
	gets := iters(probeKeys)
	add("sstable.get_uncached_ns", timeN(gets, func(i int) {
		k := d.pick(i)
		e, ok, err := r.Get(k, bloom.Hash64(k), kv.MaxSeqNum)
		must(err)
		if !ok {
			panic("benchmark probe: table lost a key")
		}
		probeSink += len(e.Value)
	}), gets)
	it := r.NewIterator()
	n := 0
	t0 := time.Now()
	for ok := it.First(); ok; ok = it.Next() {
		n++
	}
	add("sstable.iter_next_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	must(it.Close())
}

func probeBloom(d *probeData, add addFn) {
	n := iters(1_000_000)
	f := bloom.NewFromKeys(d.keys, 10)
	add("bloom.may_contain_ns", timeN(n, func(i int) {
		if !f.MayContain(d.pick(i)) {
			panic("benchmark probe: bloom false negative")
		}
	}), n)
}

func probeCache(add addFn) {
	const blocks, blockSize = 4096, 4096
	n := iters(1_000_000)
	block := make([]byte, blockSize)
	hot := cache.New(64 << 20)
	for i := 0; i < blocks; i++ {
		hot.Add(1, uint64(i)*blockSize, block, blockSize)
	}
	add("cache.get_hit_ns", timeN(n, func(i int) {
		if _, ok := hot.Get(1, uint64((i*7919)%blocks)*blockSize); !ok {
			panic("benchmark probe: resident block missed")
		}
	}), n)
	small := cache.New(1 << 20) // 256 blocks: past that every add evicts
	add("cache.add_evict_ns", timeN(n, func(i int) {
		small.Add(2, uint64(i)*blockSize, block, blockSize)
	}), n)
}

// probeMerge times one step of a merging iterator over eight runs whose
// keys interleave, the shape a scan sees under a tiered level 0.
func probeMerge(d *probeData, add addFn) {
	const k = 8
	runs := make([][]kv.Entry, k)
	for i, key := range d.keys {
		r := i % k
		runs[r] = append(runs[r], kv.Entry{Key: kv.MakeKey(key, kv.SeqNum(i+1), kv.KindSet), Value: d.val})
	}
	iters := make([]kv.Iterator, k)
	for i := range iters {
		iters[i] = kv.NewSliceIterator(runs[i])
	}
	m := kv.NewMergingIterator(iters...)
	n := 0
	t0 := time.Now()
	for ok := m.First(); ok; ok = m.Next() {
		n++
	}
	add("kv.merge_next_ns_k8", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	must(m.Close())
}

// probePicker times choosing a compaction on a five-level tree whose
// level 0 is over its run budget and whose level 1 holds 64 files.
func probePicker(add addFn) {
	n := iters(20_000)
	o := core.DefaultOptions(nil, "")
	p := compaction.NewPicker(compaction.Options{NumLevels: o.NumLevels, SizeRatio: o.SizeRatio,
		BaseLevelBytes: uint64(o.BufferBytes) * uint64(o.SizeRatio), Layout: o.Layout,
		Granularity: o.Granularity, MovePolicy: o.MovePolicy})
	num := uint64(0)
	file := func(lo, hi int64) *manifest.FileMeta {
		num++
		return &manifest.FileMeta{Num: num, Size: 2 << 20, Smallest: appendKey(nil, lo), Largest: appendKey(nil, hi),
			SmallestSeq: kv.SeqNum(num), LargestSeq: kv.SeqNum(num), NumEntries: 16_000}
	}
	v := manifest.NewVersion(o.NumLevels)
	for r := 0; r < 6; r++ {
		v = v.PushRun(0, &manifest.Run{Files: []*manifest.FileMeta{file(0, probeKeys-1)}})
	}
	var l1 manifest.Run
	for i := int64(0); i < 64; i++ {
		l1.Files = append(l1.Files, file(i*1000, i*1000+999))
	}
	v = v.PushRun(1, &l1)
	add("compaction.pick_ns", timeN(n, func(int) {
		if p.Pick(v) == nil {
			panic("benchmark probe: picker found nothing to do on an over-full level 0")
		}
	}), n)
}
