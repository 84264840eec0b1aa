package core

import (
	"cmp"
	"errors"
	"fmt"

	"lsmlab/internal/kv"
	"lsmlab/internal/wal"
	"lsmlab/internal/wisckey"
)

// MergeOperator folds read-modify-write operands into values (tutorial
// §2.2.6). Implementations must be deterministic and associative in the
// PartialMerge sense.
type MergeOperator interface {
	// FullMerge computes the final value from the existing base value
	// (nil when the key had none) and the operands, oldest first.
	FullMerge(key, existing []byte, operands [][]byte) ([]byte, error)
	// PartialMerge combines two adjacent operands (older applied first)
	// into one, reporting false if they cannot be combined; compaction
	// then keeps them separate.
	PartialMerge(key, older, newer []byte) ([]byte, bool)
}

// ErrNoMergeOperator is returned by Merge when no operator is
// configured.
var ErrNoMergeOperator = errors.New("lsm: no merge operator configured")

// Merge records a read-modify-write operand for key. The operand is
// folded into the key's value by Options.MergeOperator at read or
// compaction time — the write itself never reads (the blind-write
// advantage of the LSM RMW path).
func (db *DB) Merge(key, operand []byte) error {
	if db.opts.MergeOperator == nil {
		return ErrNoMergeOperator
	}
	var b Batch
	b.Merge(key, operand)
	return db.Apply(&b)
}

// Merge adds a merge operand to the batch.
func (b *Batch) Merge(key, operand []byte) {
	b.ops = append(b.ops, wal.Op{Kind: kv.KindMerge, Key: cp(key), Value: cp(operand)})
}

// mergeChain is one key's operand chain (§2.2.6) as a merged internal
// stream yields it: the operand entries newest first and the base
// value the chain ends on. Reads and compaction both
// collect a chain with walk and fold it with fold; they differ only in
// where a chain may end, which the caller's cut decides.
type mergeChain struct {
	key      []byte      // stable copy of the user key
	vals     [][]byte    // copied operand values, newest first
	seqs     []kv.SeqNum // their sequence numbers
	base     []byte      // the base value when the chain ended on chainBase
	baseSeq  kv.SeqNum
	operands [][]byte // fold's oldest-first view of vals
}

// chainEnd says what ended a chain, or, returned by a cut, that the
// entry continues it.
type chainEnd uint8

const (
	chainNext    chainEnd = iota // cut only: the entry belongs to the chain
	chainOpen                    // the key's history (or the caller's stripe) ran out first
	chainCovered                 // a covering range tombstone: folds onto nil
	chainDeleted                 // a point tombstone: folds onto nil
	chainBase                    // a Set or value pointer: base holds its value
)

// walk collects the chain whose newest operand src rests on, stepping
// src down the key's older versions. cut sees each older version first
// and may end the chain there. A value-pointer base is read from the
// value log. walk leaves src on the entry that ended the chain, or past
// the key on chainOpen when the history ran out. A failed base read, or
// a failed source, is returned: a chain is never folded over a base it
// could not read.
func (c *mergeChain) walk(db *DB, src *kv.MergingIterator, cut func(ukey []byte, seq kv.SeqNum) chainEnd) (chainEnd, error) {
	c.key = append(c.key[:0], kv.UserKey(src.Key())...)
	c.vals = append(c.vals[:0], cp(src.Value()))
	c.seqs = append(c.seqs[:0], kv.SeqOf(src.Key()))
	c.base = nil
	for src.Next() {
		uk, seq, kind, _ := kv.ParseKey(src.Key())
		if kv.CompareUser(uk, c.key) != 0 {
			break
		}
		if end := cut(c.key, seq); end != chainNext {
			return end, src.Error()
		}
		switch kind {
		case kv.KindMerge:
			c.vals = append(c.vals, cp(src.Value()))
			c.seqs = append(c.seqs, seq)
			continue
		case kv.KindSet:
			c.base = cp(src.Value())
		case kv.KindValuePointer:
			p, err := wisckey.DecodePointer(src.Value())
			if err == nil {
				c.base, err = db.vlog.Read(p)
			}
			if err != nil {
				return chainOpen, err
			}
		default:
			return chainDeleted, src.Error()
		}
		c.baseSeq = seq
		return chainBase, src.Error()
	}
	// A corrupt block ends the stream like a finished history; folding
	// a truncated chain would corrupt the value.
	return chainOpen, src.Error()
}

// fold applies op to the chain: its operands, oldest first, over the
// base (nil unless the chain ended on chainBase).
func (c *mergeChain) fold(op MergeOperator) ([]byte, error) {
	if op == nil {
		return nil, ErrNoMergeOperator
	}
	c.operands = c.operands[:0]
	for i := len(c.vals) - 1; i >= 0; i-- {
		c.operands = append(c.operands, c.vals[i])
	}
	v, err := op.FullMerge(c.key, c.base, c.operands)
	if err != nil {
		return nil, fmt.Errorf("lsm: merge operator: %w", err)
	}
	return v, nil
}

// getMerged folds the chain of key whose newest operand a Get found at
// seq: the N=1 case of a scan, a one-key iterator over the state the
// Get pinned.
func (db *DB) getMerged(rs *readState, key []byte, seq kv.SeqNum) ([]byte, error) {
	rs.refs.Add(1) // the iterator's own reference, dropped by its Close
	it, err := db.newIterator(rs, IterOptions{LowerBound: key, UpperBound: append(cp(key), 0)}, seq)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if !it.First() {
		return nil, cmp.Or(it.Err(), ErrNotFound)
	}
	return cp(it.Value()), nil
}
