package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lsmlab/internal/core"
	"lsmlab/internal/events"
	"lsmlab/internal/server"
	"lsmlab/internal/vfs"
	"lsmlab/internal/vfs/faultfs"
)

// Tracing from outside the program. The harness wraps the three
// interfaces the program already exposes — server.Engine (or the
// embedded DB's methods), vfs.FS, and the events listener — and, with
// client.Options.TraceEvery, gets the client's and the server's view of
// each request. Wrappers only count while the recorder is off and
// record spans while it is on, so one run holds an untraced phase and a
// traced one on the same store.

type spanName uint8

const (
	spClient spanName = iota
	spServer
	spEngineGet
	spEngineApply
	spEngineScan
	spVFSRead
	spVFSWrite
	spVFSSync
	spFlush
	spCompaction
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client", "server", "engine.get", "engine.apply", "engine.scan",
	"vfs.read", "vfs.write", "vfs.sync", "flush", "compaction",
}

// File classes the filesystem wrapper tags its spans and counters with.
const (
	fcWAL = iota
	fcSST
	fcManifest
	fcOther
	numFileClasses
)

var fileClassNames = [numFileClasses]string{"wal", "sst", "manifest", "other"}

func fileClass(name string) uint8 {
	switch faultfs.Classify(name) {
	case faultfs.ClassWAL:
		return fcWAL
	case faultfs.ClassSST:
		return fcSST
	case faultfs.ClassManifest:
		return fcManifest
	}
	return fcOther
}

// span is (name, start, end, parent, request id). parent indexes the
// recorder's span slice, -1 for a root. selfNs is filled for engine
// spans: duration minus foreground filesystem children minus the
// instrumentation those children added.
type span struct {
	name   spanName
	class  uint8
	parent int32
	req    uint64
	start  int64
	end    int64
	selfNs int64
}

// clientRecord is one traced request as the client saw it.
type clientRecord struct {
	req        uint64
	start, end int64
	serverNs   int64
}

type vfsCounters struct {
	readOps, readBytes   atomic.Int64
	writeOps, writeBytes atomic.Int64
	syncs                atomic.Int64
}

// activeSlot is one engine call in flight while recording: the thread
// it is pinned to, its span, and what its filesystem children cost.
type activeSlot struct {
	tid        atomic.Int64 // 0 = free
	span       int32
	req        uint64
	start      int64
	childNs    int64 // written only by the pinned thread
	overheadNs int64
}

const maxActive = 16

// maxSpans bounds one run's trace (memory, and the size of the file it
// leaves); the traced phase ends when it fills.
const maxSpans = 200_000

type recorder struct {
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	clients []clientRecord

	active [maxActive]activeSlot

	// Counters that run in both phases.
	applies, applyOps         atomic.Int64
	vfs                       [numFileClasses]vfsCounters
	flushNs, compactionNs     atomic.Int64
	flushJobs, compactionJobs atomic.Int64
	reqSeq                    atomic.Uint64
}

func newRecorder() *recorder {
	return &recorder{spans: make([]span, 0, maxSpans+1024)}
}

func nowNs() int64 { return time.Now().UnixNano() }

func (r *recorder) full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Each client record becomes a client and a server span in finish.
	return len(r.spans)+2*len(r.clients) >= maxSpans
}

func (r *recorder) appendSpan(s span) int32 {
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return i
}

// enter opens an engine span on the calling goroutine, which stays
// pinned to its thread until leave so that filesystem calls made
// underneath can find it by thread id. It returns nil, which leave
// accepts, while the recorder is off. req 0 (a call that carries no
// wire trace id) gets a minted id.
func (r *recorder) enter(name spanName, req uint64) *activeSlot {
	if !r.on.Load() {
		return nil
	}
	if req == 0 {
		req = 1<<63 | r.reqSeq.Add(1)
	}
	runtime.LockOSThread()
	tid := threadID()
	var slot *activeSlot
	for i := range r.active {
		if r.active[i].tid.CompareAndSwap(0, tid) {
			slot = &r.active[i]
			break
		}
	}
	if slot == nil {
		// More concurrent engine calls than slots: run this one unrecorded.
		runtime.UnlockOSThread()
		return nil
	}
	slot.span = r.appendSpan(span{name: name, parent: -1, req: req})
	slot.req = req
	slot.childNs, slot.overheadNs = 0, 0
	slot.start = nowNs()
	return slot
}

func (r *recorder) leave(slot *activeSlot) {
	if slot == nil {
		return
	}
	end := nowNs()
	r.mu.Lock()
	s := &r.spans[slot.span]
	s.start, s.end = slot.start, end
	s.selfNs = end - slot.start - slot.childNs - slot.overheadNs
	r.mu.Unlock()
	slot.tid.Store(0)
	runtime.UnlockOSThread()
}

// ioTimer is one filesystem call being timed: the clock when the
// wrapper was entered, the clock just before the wrapped call, and the
// engine call the thread is pinned inside (nil for a background
// goroutine). The zero value means the recorder is off.
type ioTimer struct {
	entered, start int64
	slot           *activeSlot
}

func (r *recorder) ioBegin() ioTimer {
	if !r.on.Load() {
		return ioTimer{}
	}
	t := ioTimer{entered: nowNs()}
	if tid := threadID(); tid >= 0 {
		for i := range r.active {
			if r.active[i].tid.Load() == tid {
				t.slot = &r.active[i]
				break
			}
		}
	}
	t.start = nowNs()
	return t
}

// ioEnd records the filesystem span and charges its time, and the
// instrumentation around it, to the engine call it ran under.
func (r *recorder) ioEnd(t ioTimer, name spanName, class uint8) {
	if t.start == 0 {
		return
	}
	end := nowNs()
	s := span{name: name, class: class, parent: -1, start: t.start, end: end}
	if t.slot != nil {
		s.parent, s.req = t.slot.span, t.slot.req
	}
	r.appendSpan(s)
	if t.slot != nil {
		t.slot.childNs += end - t.start
		t.slot.overheadNs += (t.start - t.entered) + (nowNs() - end)
	}
}

// Notify implements events.Listener: flush and compaction jobs become
// background spans and busy-time counters.
func (r *recorder) Notify(e events.Event) {
	var name spanName
	switch e.Type {
	case events.FlushEnd:
		name = spFlush
		r.flushNs.Add(e.DurationNs)
		r.flushJobs.Add(1)
	case events.CompactionEnd:
		name = spCompaction
		r.compactionNs.Add(e.DurationNs)
		r.compactionJobs.Add(1)
	default:
		return
	}
	if r.on.Load() {
		r.appendSpan(span{name: name, parent: -1, req: e.JobID, start: e.TimeNs - e.DurationNs, end: e.TimeNs})
	}
}

func (r *recorder) addClient(c clientRecord) {
	r.mu.Lock()
	r.clients = append(r.clients, c)
	r.mu.Unlock()
}

// ---------------------------------------------------------------------
// Engine wrappers

// tracedEngine wraps the engine a server serves.
type tracedEngine struct {
	server.Engine
	rec *recorder
}

func (e *tracedEngine) GetTraced(key []byte, id uint64) ([]byte, error) {
	s := e.rec.enter(spEngineGet, id)
	v, err := e.Engine.GetTraced(key, id)
	e.rec.leave(s)
	return v, err
}

func (e *tracedEngine) ApplyTraced(b *core.Batch, id uint64) error {
	e.rec.applies.Add(1)
	e.rec.applyOps.Add(int64(b.Len()))
	s := e.rec.enter(spEngineApply, id)
	err := e.Engine.ApplyTraced(b, id)
	e.rec.leave(s)
	return err
}

// NewRangeIter spans the iterator's whole life, since a scan does its
// work while it is iterated, not when it is created.
func (e *tracedEngine) NewRangeIter(lower, upper []byte) (core.RangeIter, error) {
	s := e.rec.enter(spEngineScan, 0)
	it, err := e.Engine.NewRangeIter(lower, upper)
	if err != nil || s == nil {
		e.rec.leave(s)
		return it, err
	}
	return &tracedIter{RangeIter: it, rec: e.rec, slot: s}, nil
}

type tracedIter struct {
	core.RangeIter
	rec  *recorder
	slot *activeSlot
}

func (it *tracedIter) Close() error {
	err := it.RangeIter.Close()
	it.rec.leave(it.slot)
	it.slot = nil
	return err
}

// embedded is what the embed-* workloads call: the methods of *core.DB
// a program embedding the engine uses.
type embedded interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	Delete(key []byte) error
	Scan(start, end []byte, limit int) ([]core.KV, error)
}

// tracedDB wraps an embedded DB the way tracedEngine wraps a served one.
type tracedDB struct {
	db  *core.DB
	rec *recorder
}

func (e *tracedDB) Get(key []byte) ([]byte, error) {
	s := e.rec.enter(spEngineGet, 0)
	v, err := e.db.Get(key)
	e.rec.leave(s)
	return v, err
}

func (e *tracedDB) Put(key, value []byte) error {
	e.rec.applies.Add(1)
	e.rec.applyOps.Add(1)
	s := e.rec.enter(spEngineApply, 0)
	err := e.db.Put(key, value)
	e.rec.leave(s)
	return err
}

func (e *tracedDB) Delete(key []byte) error {
	e.rec.applies.Add(1)
	e.rec.applyOps.Add(1)
	s := e.rec.enter(spEngineApply, 0)
	err := e.db.Delete(key)
	e.rec.leave(s)
	return err
}

func (e *tracedDB) Scan(start, end []byte, limit int) ([]core.KV, error) {
	s := e.rec.enter(spEngineScan, 0)
	kvs, err := e.db.Scan(start, end, limit)
	e.rec.leave(s)
	return kvs, err
}

// ---------------------------------------------------------------------
// Filesystem wrapper

// traceFS wraps the filesystem a store is opened on, tagging every
// read, write and sync with its file class.
type traceFS struct {
	vfs.FS
	rec *recorder
}

func (t *traceFS) wrap(f vfs.File, err error, name string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, rec: t.rec, class: fileClass(name)}, nil
}

func (t *traceFS) Create(name string) (vfs.File, error) {
	f, err := t.FS.Create(name)
	return t.wrap(f, err, name)
}

func (t *traceFS) Append(name string) (vfs.File, error) {
	f, err := t.FS.Append(name)
	return t.wrap(f, err, name)
}

func (t *traceFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	return t.wrap(f, err, name)
}

type traceFile struct {
	vfs.File
	rec   *recorder
	class uint8
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	c := &f.rec.vfs[f.class]
	c.readOps.Add(1)
	c.readBytes.Add(int64(len(p)))
	t := f.rec.ioBegin()
	n, err := f.File.ReadAt(p, off)
	f.rec.ioEnd(t, spVFSRead, f.class)
	return n, err
}

func (f *traceFile) Write(p []byte) (int, error) {
	c := &f.rec.vfs[f.class]
	c.writeOps.Add(1)
	c.writeBytes.Add(int64(len(p)))
	t := f.rec.ioBegin()
	n, err := f.File.Write(p)
	f.rec.ioEnd(t, spVFSWrite, f.class)
	return n, err
}

func (f *traceFile) Sync() error {
	f.rec.vfs[f.class].syncs.Add(1)
	t := f.rec.ioBegin()
	err := f.File.Sync()
	f.rec.ioEnd(t, spVFSSync, f.class)
	return err
}

// ---------------------------------------------------------------------
// Analysis

// traceSummary is what the traced phase yields for the per-layer
// metrics: per-request self times by layer, and the share of engine
// time spent in foreground filesystem calls.
type traceSummary struct {
	clientSelf, serverSelf          []float64 // ns per request
	getSelf, applySelf, scanSelf    []float64
	engineNs, fgVFSNs               int64
	gets                            int64
	sstReadsFG                      int64 // foreground sst reads (children of engine.get)
	spans, clientRecords, unmatched int
}

// finish links client records to engine spans by request id, creating
// the client and server spans, and sums self times. It must run after
// recording stopped.
func (r *recorder) finish() traceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum traceSummary
	byReq := make(map[uint64]int32, len(r.clients))
	for i := range r.spans {
		s := &r.spans[i]
		switch s.name {
		case spEngineGet, spEngineApply, spEngineScan:
			if s.end == 0 {
				continue // still open when recording stopped
			}
			byReq[s.req] = int32(i)
			sum.engineNs += s.end - s.start
			self := float64(s.selfNs)
			switch s.name {
			case spEngineGet:
				sum.gets++
				sum.getSelf = append(sum.getSelf, self)
			case spEngineApply:
				sum.applySelf = append(sum.applySelf, self)
			default:
				sum.scanSelf = append(sum.scanSelf, self)
			}
		case spVFSRead, spVFSWrite, spVFSSync:
			if s.parent >= 0 {
				sum.fgVFSNs += s.end - s.start
				if s.name == spVFSRead && s.class == fcSST && r.spans[s.parent].name == spEngineGet {
					sum.sstReadsFG++
				}
			}
		}
	}
	// Background filesystem spans hang off the innermost job span that
	// contains them. With two shards working at once the pick can be
	// the other shard's job; only the parent link in the file depends
	// on it, no metric does.
	var jobs []int32
	for i := range r.spans {
		if n := r.spans[i].name; n == spFlush || n == spCompaction {
			jobs = append(jobs, int32(i))
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return r.spans[jobs[a]].start < r.spans[jobs[b]].start })
	for i := range r.spans {
		s := &r.spans[i]
		if s.parent >= 0 || s.name < spVFSRead || s.name > spVFSSync {
			continue
		}
		k := sort.Search(len(jobs), func(j int) bool { return r.spans[jobs[j]].start > s.start })
		for k--; k >= 0; k-- {
			if j := &r.spans[jobs[k]]; j.end >= s.end {
				s.parent = jobs[k]
				break
			}
		}
	}
	for _, c := range r.clients {
		ci := int32(len(r.spans))
		r.spans = append(r.spans, span{name: spClient, parent: -1, req: c.req, start: c.start, end: c.end})
		sum.clientSelf = append(sum.clientSelf, float64(c.end-c.start-c.serverNs))
		ei, ok := byReq[c.req]
		if !ok {
			sum.unmatched++
			continue
		}
		e := &r.spans[ei]
		// The wire echo carries the server's duration, not its start:
		// centre the server span on the engine span it contains.
		pad := (c.serverNs - (e.end - e.start)) / 2
		r.spans = append(r.spans, span{name: spServer, parent: ci, req: c.req, start: e.start - pad, end: e.end + pad})
		e.parent = ci + 1
		sum.serverSelf = append(sum.serverSelf, float64(c.serverNs-(e.end-e.start)))
	}
	sum.spans, sum.clientRecords = len(r.spans), len(r.clients)
	return sum
}

// writeSpans writes the trace as JSON lines-in-an-array, times in
// nanoseconds since origin.
func (r *recorder) writeSpans(path, workload string, seed int64, origin int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"fields\":[\"name\",\"start\",\"end\",\"parent\",\"req\"],\"spans\":[\n", workload, seed)
	var buf []byte
	for i := range r.spans {
		s := &r.spans[i]
		name := spanNames[s.name]
		if s.name >= spVFSRead && s.name <= spVFSSync {
			name = "vfs." + fileClassNames[s.class] + name[3:]
		}
		buf = append(buf[:0], `["`...)
		buf = append(buf, name...)
		buf = append(buf, `",`...)
		buf = strconv.AppendInt(buf, s.start-origin, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end-origin, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"`...)
		buf = strconv.AppendUint(buf, s.req, 16)
		buf = append(buf, `"]`...)
		if i < len(r.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
