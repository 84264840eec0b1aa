package core

import (
	"errors"

	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
)

// This file is the engine side of replication (internal/replica): a
// follower opens its store with Options.Replica set, which refuses
// external writes, and the replica.Receiver applies shipped WAL
// batches through ReplicaApply — the same commit/publish pipeline as
// leader writes, so the follower's visibleSeq watermark, snapshots,
// and cross-shard scan semantics hold unchanged. The follower keeps
// its own local sequence space (its seqnums need not mirror the
// leader's); what ties the two stores together is apply ORDER, which
// the shipped stream preserves, plus the applied-leader-seq watermark
// the receiver tracks on top.

// ErrReplica is returned by writes on a store opened as a read-only
// replica. Unlike ErrDegraded it does not indicate a fault: the store
// is healthy, writes just belong on the leader.
var ErrReplica = errors.New("lsm: replica is read-only (writes go to the leader)")

// ReplicaApply applies one shipped WAL batch through the commit
// pipeline: WAL append (follower durability), memtable insert, and
// ordered publish, exactly like a leader-side Apply. The receiver is
// the sole caller and applies batches serially in shipped order, which
// is what makes the follower an order-faithful copy of the leader.
// Only a store opened with Options.Replica accepts it.
func (db *DB) ReplicaApply(ops []wal.Op) error {
	if !db.opts.Replica {
		return errors.New("lsm: ReplicaApply on a non-replica store")
	}
	if len(ops) == 0 {
		return nil
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	// Shipped batches are already post-diversion (see the replication
	// restriction on value separation in internal/replica) and untraced.
	return db.commitOps(ops, ops, nil)
}

// ReplicaRepair is the anti-entropy write path: Merkle repair re-ships
// divergent ranges as ordinary batches with fresh local sequence
// numbers (they carry the newest visible values, so recency stays
// correct). It bypasses the external-write refusal but not the
// degradation check. Like ReplicaApply, only the replica machinery may
// call it.
func (db *DB) ReplicaRepair(b *Batch) error {
	if !db.opts.Replica {
		return errors.New("lsm: ReplicaRepair on a non-replica store")
	}
	if len(b.ops) == 0 {
		return nil
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	return db.commitOps(b.ops, b.ops, nil)
}

// SyncWAL forces the active WAL segment to stable storage. The
// receiver calls it before persisting its replication watermark, so a
// persisted watermark never claims durability the log does not have.
func (db *DB) SyncWAL() error {
	db.walMu.Lock()
	defer db.walMu.Unlock()
	if db.walFile == nil {
		return nil
	}
	err := db.walFile.Sync()
	if err == nil {
		db.m.WALSyncs.Add(1)
	}
	return err
}

// FSDir exposes the store's filesystem and directory — the WAL shipper
// tails the directory with a wal.Cursor, and the receiver keeps its
// replication-state file next to the store.
func (db *DB) FSDir() (vfs.FS, string) { return db.fs, db.dir }

// IsReplica reports whether the store was opened as a read-only
// replica.
func (db *DB) IsReplica() bool { return db.opts.Replica }
