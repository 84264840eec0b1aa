package core

import "lsmlab/internal/kv"

// Snapshot is a consistent read-only view of the store as of its
// creation. Live snapshots also pin data during compaction: versions a
// snapshot can still observe are never garbage-collected (tutorial
// §2.1.2; compaction retains the newest version per snapshot stripe).
type Snapshot struct {
	db       *DB
	seq      kv.SeqNum
	released bool
}

// NewSnapshot captures the current published sequence number. The
// visibleSeq watermark (not the allocation cursor) is captured, so a
// snapshot taken mid-group observes only fully committed batches.
func (db *DB) NewSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	seq := kv.SeqNum(db.visibleSeq.Load())
	db.snapshots[seq]++
	return &Snapshot{db: db, seq: seq}
}

// Get reads a key as of the snapshot. Like DB.Get, the value is
// read-only: it may alias the memtable or a cached block.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	if s.released {
		return nil, ErrClosed
	}
	return s.db.get(key, s.seq, 0)
}

// NewIterator iterates the store as of the snapshot.
func (s *Snapshot) NewIterator(opts IterOptions) (*Iterator, error) {
	if s.released {
		return nil, ErrClosed
	}
	opts.snapshot = s.seq
	return s.db.NewIterator(opts)
}

// Scan returns up to limit live entries in [start, end) as of the
// snapshot, counted, traced and profiled like DB.Scan.
func (s *Snapshot) Scan(start, end []byte, limit int) ([]KV, error) {
	if s.released {
		return nil, ErrClosed
	}
	return s.db.scan(start, end, limit, s.seq, 0)
}

// Seq exposes the snapshot's sequence number (used by experiments).
func (s *Snapshot) Seq() kv.SeqNum { return s.seq }

// Release unpins the snapshot; the data it protected becomes eligible
// for garbage collection at the next compaction.
func (s *Snapshot) Release() {
	if s.released {
		return
	}
	s.released = true
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if n := s.db.snapshots[s.seq]; n <= 1 {
		delete(s.db.snapshots, s.seq)
	} else {
		s.db.snapshots[s.seq] = n - 1
	}
}
