package core

// RangeIter is the minimal bounded-range iteration surface shared by a
// single tree and the sharded store (internal/partition). The serving
// layer scans through it without knowing which engine form backs it:
// *Iterator satisfies it directly, and the partition router returns a
// merged, snapshot-vector-consistent implementation.
type RangeIter interface {
	// First positions at the first live entry; Next advances. Both
	// report whether the iterator rests on an entry.
	First() bool
	Next() bool
	// Key and Value return the current user key and value; the slices
	// are stable until the next positioning call.
	Key() []byte
	Value() []byte
	// Err returns the first error the iterator encountered (exhaustion
	// and a corrupt source look identical from the positioning calls).
	Err() error
	Close() error
}

// Collect copies out up to limit entries of it from its first (limit
// <= 0: all of them) and returns them with the iterator's error.
//
// One call's keys and values share one backing buffer: its first chunk
// fits the first entry × min(limit, collectAhead) up to
// collectFirstChunk bytes, and each further chunk doubles the last, so
// it allocates a small multiple of the bytes it returns. Keys and
// values are cut with full slice expressions, so appending to one
// result reallocates it rather than overwriting the next.
func Collect(it RangeIter, limit int) ([]KV, error) {
	ahead := collectAhead
	var out []KV
	if limit > 0 {
		ahead = min(limit, collectAhead)
		out = make([]KV, 0, ahead)
	}
	var buf []byte
	for ok := it.First(); ok; ok = it.Next() {
		k, v := it.Key(), it.Value()
		if n := len(k) + len(v); cap(buf)-len(buf) < n {
			size := 2 * cap(buf)
			if buf == nil {
				size = min(n*ahead, collectFirstChunk)
			}
			buf = make([]byte, 0, max(n, size))
		}
		off, mid := len(buf), len(buf)+len(k)
		buf = append(append(buf, k...), v...)
		out = append(out, KV{Key: buf[off:mid:mid], Value: buf[mid:len(buf):len(buf)]})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, it.Err()
}

// collectAhead is how many entries Collect sizes for before seeing
// them; collectFirstChunk caps its first buffer chunk in bytes.
const collectAhead, collectFirstChunk = 64, 64 << 10

// NewRangeIter returns an iterator over the live entries in
// [lower, upper) — nil bounds mean unbounded — typed as the engine-
// neutral RangeIter.
func (db *DB) NewRangeIter(lower, upper []byte) (RangeIter, error) {
	return db.NewIterator(IterOptions{LowerBound: lower, UpperBound: upper})
}

// VisibleSeq returns the published sequence-number watermark: every
// batch at or below it is fully applied and visible to readers.
func (db *DB) VisibleSeq() uint64 { return db.visibleSeq.Load() }

// SeqVector returns the visibility watermark as a one-element vector —
// the degenerate form of the sharded store's per-shard vector, so the
// wire protocol's WATERMARK verb has one shape for both engine forms.
func (db *DB) SeqVector() []uint64 { return []uint64{db.visibleSeq.Load()} }
