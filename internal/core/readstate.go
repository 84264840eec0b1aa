package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lsmlab/internal/kv"
	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
)

// readState is everything a reader needs, frozen at one instant: the
// mutable buffer, the immutable queue, the tree version, and a handle on
// every table file that version names. It is immutable once published
// and reference-counted: the engine holds one reference on the state it
// has published, and every Get, iterator, checkpoint, scrub and
// compaction holds one on the state it pinned. A table file stays on
// disk, and its reader open, for as long as any state names it — which
// is the whole answer to "who keeps a table alive while it is read"
// (tutorial §2.1.1 C/D: immutable files, collected once unread).
type readState struct {
	db      *DB
	refs    atomic.Int32
	closed  bool          // published by Close: pin refuses it
	mems    []*memWrapper // newest first
	version *manifest.Version
	tables  map[uint64]*tableHandle // one per file of version
}

// tableHandle is one table file's lifetime, shared by every state whose
// version names the file. The reader opens on first touch.
type tableHandle struct {
	num  uint64
	refs atomic.Int32 // states naming the file
	open sync.Mutex   // serializes the first open
	r    atomic.Pointer[sstable.Reader]
}

// install is the one way db.version changes after Open. Under
// db.editMu it derives the next version with edit, checks it and
// commits it to the manifest with db.mu released; only after the commit
// succeeded does it take db.mu to swap db.version, run tail (or nil)
// and publish, so the published version is always a committed one. A
// failed install changes nothing in memory: what the edit dropped stays
// live until a later commit (a full rewrite, manifest.Store) supersedes
// the failed one, and its outputs, never published, are left for the
// next Open's orphan sweep. The caller unpins the returned predecessor.
func (db *DB) install(edit func(*manifest.Version) *manifest.Version, tail func()) (*readState, error) {
	db.editMu.Lock()
	defer db.editMu.Unlock()
	if db.store == nil {
		return nil, ErrClosed
	}
	next := edit(db.version)
	if err := next.Check(); err != nil {
		return nil, fmt.Errorf("lsm: version invariant violated: %w", err)
	}
	st := &manifest.State{Version: next, NextFileNum: db.nextFile.Load(), LastSeq: kv.SeqNum(db.lastSeq.Load())}
	if err := db.store.Commit(st); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.version = next
	if tail != nil {
		tail()
	}
	return db.publishLocked(), nil
}

// publishLocked freezes the engine's current sources (db.mem, db.imm,
// db.version, db.closed) into a new read state, makes it the one new
// readers pin, and returns its predecessor, whose reference the caller
// releases — after dropping db.mu when the version lost files, since
// the release is what deletes them. Every mutation of those fields ends
// in a publishLocked. Callers hold db.mu.
func (db *DB) publishLocked() *readState {
	prev := db.state.Load()
	next := &readState{db: db, closed: db.closed, version: db.version}
	next.refs.Store(1)
	next.mems = make([]*memWrapper, 0, len(db.imm)+1)
	if db.mem != nil { // nil while Open replays the log and once Close retired it
		next.mems = append(next.mems, db.mem)
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		next.mems = append(next.mems, db.imm[i])
	}
	if !db.closed {
		var old map[uint64]*tableHandle
		if prev != nil {
			old = prev.tables
		}
		next.tables = make(map[uint64]*tableHandle, db.version.TotalFiles())
		for _, f := range db.version.Files() {
			h := old[f.Num]
			if h == nil {
				h = &tableHandle{num: f.Num}
			}
			h.refs.Add(1)
			next.tables[f.Num] = h
		}
	}
	db.state.Store(next)
	return prev
}

// pin returns the current read state with a reference taken, or
// ErrClosed. The caller unpins it exactly once.
func (db *DB) pin() (*readState, error) {
	for {
		rs := db.state.Load()
		if rs.closed {
			return nil, ErrClosed
		}
		// A state whose count reached zero is dead for good (its tables
		// may already be gone); losing that race means a newer state has
		// been published, so load again.
		for n := rs.refs.Load(); n > 0; n = rs.refs.Load() {
			if rs.refs.CompareAndSwap(n, n+1) {
				return rs, nil
			}
		}
	}
}

// unpin drops one reference. The last one releases the state's hold on
// its tables, and a table no state names any more is closed and — unless
// the live version still lists it, as when Close releases the final
// state — deleted. This is the only place a once-live table dies.
func (rs *readState) unpin() {
	if rs == nil || rs.refs.Add(-1) != 0 {
		return
	}
	var live map[uint64]bool
	for _, h := range rs.tables {
		if h.refs.Add(-1) != 0 {
			continue
		}
		if r := h.r.Load(); r != nil {
			r.Close()
		}
		if live == nil {
			live = rs.db.state.Load().version.LiveFileNums()
		}
		if !live[h.num] {
			rs.db.removeTable(h.num)
		}
	}
}

// reader returns the open reader of a table the pinned version names.
func (rs *readState) reader(num uint64) (*sstable.Reader, error) {
	h := rs.tables[num]
	if h == nil {
		return nil, fmt.Errorf("lsm: table %d is not in the pinned version", num)
	}
	if r := h.r.Load(); r != nil {
		return r, nil
	}
	h.open.Lock()
	defer h.open.Unlock()
	if r := h.r.Load(); r != nil {
		return r, nil
	}
	db := rs.db
	f, err := db.fs.Open(vfs.Join(db.dir, manifest.FileName(num)))
	if err != nil {
		return nil, err
	}
	var bc sstable.BlockCache
	if db.bcache != nil {
		bc = db.bcache
	}
	// A table is read until its last pin lets go: worth a mapping.
	f = vfs.Mapped(f)
	r, err := sstable.Open(f, sstable.ReaderOptions{FileNum: num, Cache: bc, Stats: &db.m})
	if err != nil {
		f.Close()
		return nil, err
	}
	h.r.Store(r)
	return r, nil
}

// removeTable deletes a table file and its cached blocks. Every table
// deletion in the engine — obsolete inputs, aborted outputs, orphans
// swept at Open — goes through here. A file already renamed aside by
// the scrubber is simply not there any more.
func (db *DB) removeTable(num uint64) {
	if db.bcache != nil {
		db.bcache.EvictFile(num)
	}
	db.fs.Remove(vfs.Join(db.dir, manifest.FileName(num)))
}
