package core

import (
	"errors"
	"fmt"
	"syscall"

	"lsmlab/internal/events"
	"lsmlab/internal/manifest"
	"lsmlab/internal/sstable"
	"lsmlab/internal/vfs"
	"lsmlab/internal/wal"
	"lsmlab/internal/wisckey"
)

// This file is the engine's degradation story (DESIGN.md §2d). A
// background error — a flush or compaction that cannot complete — used
// to silently poison all future writes via bgErr, explained only at
// Close. Now errors are classified, transient ones are retried with
// capped backoff, and only persistent or unrecoverable failures move
// the engine into a sticky read-only degraded mode: writes fail fast
// with a typed error naming the root cause, reads keep serving from
// whatever state is already durable.

// ErrDegraded is the sentinel for the read-only degraded mode. Write
// errors returned while degraded satisfy errors.Is(err, ErrDegraded)
// and are (or wrap) a *DegradedError carrying the cause.
var ErrDegraded = errors.New("lsm: degraded to read-only mode")

// ErrorKind classifies a background error for the degradation policy.
type ErrorKind int

const (
	// KindTransient is a retryable I/O failure (the default class).
	KindTransient ErrorKind = iota
	// KindCorruption is a checksum or structural mismatch: retrying
	// cannot help, and continuing to write risks compounding damage.
	KindCorruption
	// KindNoSpace is a full device. Retries are allowed (compactions
	// and external cleanup can free space) but bounded.
	KindNoSpace
)

// String implements fmt.Stringer.
func (k ErrorKind) String() string {
	switch k {
	case KindCorruption:
		return "corruption"
	case KindNoSpace:
		return "no-space"
	default:
		return "transient"
	}
}

// classifyError maps an error from a background job onto the taxonomy.
func classifyError(err error) ErrorKind {
	switch {
	case errors.Is(err, sstable.ErrCorrupt),
		errors.Is(err, wal.ErrCorrupt),
		errors.Is(err, manifest.ErrCorrupt),
		errors.Is(err, wisckey.ErrCorrupt):
		return KindCorruption
	case errors.Is(err, vfs.ErrNoSpace), errors.Is(err, syscall.ENOSPC):
		return KindNoSpace
	default:
		return KindTransient
	}
}

// DegradedError is the typed error returned by writes while the engine
// is degraded. It unwraps to the root cause and matches ErrDegraded.
type DegradedError struct {
	Op    string    // background operation that failed ("flush", "compaction")
	Kind  ErrorKind // classification of the root cause
	Cause error     // the final error that triggered degradation
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("lsm: degraded to read-only mode (%s, %s): %v", e.Op, e.Kind, e.Cause)
}

// Unwrap returns the root cause.
func (e *DegradedError) Unwrap() error { return e.Cause }

// Is reports true for ErrDegraded, so errors.Is(err, ErrDegraded)
// identifies degraded-mode failures without unwrapping manually.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Health is a point-in-time summary of the engine's error state. Its
// JSON form is the /healthz payload.
type Health struct {
	// Degraded reports the sticky read-only mode. When set, Op, Kind,
	// Cause, and SinceNs describe the transition.
	Degraded bool   `json:"degraded"`
	Op       string `json:"op,omitempty"`       // failing background operation
	Kind     string `json:"kind,omitempty"`     // error class (transient/corruption/no-space)
	Cause    string `json:"cause,omitempty"`    // root-cause error text
	SinceNs  int64  `json:"since_ns,omitempty"` // engine clock at the transition
	// BgErr is the first background error ever observed (empty if
	// none), surfaced here — and in Stats.Text — immediately rather
	// than only at Close. A set BgErr with Degraded false means the
	// failure was transient and a retry succeeded.
	BgErr   string `json:"bg_err,omitempty"`
	BgErrOp string `json:"bg_err_op,omitempty"` // operation that produced BgErr
}

// Health returns the engine's current degradation state. It is safe to
// call concurrently with reads, writes, and background work.
func (db *DB) Health() Health {
	db.mu.Lock()
	defer db.mu.Unlock()
	h := Health{}
	if db.bgErr != nil {
		h.BgErr = db.bgErr.Error()
		h.BgErrOp = db.bgErrOp
	}
	if db.degraded != nil {
		h.Degraded = true
		h.Op = db.degraded.Op
		h.Kind = db.degraded.Kind.String()
		h.Cause = db.degraded.Cause.Error()
		h.SinceNs = db.degradedSince
	}
	return h
}

// setBgErrLocked records the first background error with its operation
// (the health/stats surface). Callers hold db.mu.
func (db *DB) setBgErrLocked(op string, err error) {
	if db.bgErr == nil {
		db.bgErr = err
		db.bgErrOp = op
	}
}

// degradeLocked performs the one-way transition into read-only mode.
// Sticky by design: the device is suspect, so only a restart against a
// healthy filesystem clears it. Callers hold db.mu.
func (db *DB) degradeLocked(op string, err error) {
	if db.degraded != nil {
		return
	}
	de := &DegradedError{Op: op, Kind: classifyError(err), Cause: err}
	db.degraded = de
	db.degradedSince = db.opts.NowNs()
	db.degradedFlag.Store(true)
	db.m.Degraded.Store(1)
	db.setBgErrLocked(op, err)
	db.emit(events.Event{Type: events.DegradedEnter, Path: op,
		Reason: de.Kind.String(), Err: err})
	// Wake stalled writers (they must fail fast now), parked workers,
	// and waitIdle callers (pending work will never drain).
	db.cond.Broadcast()
}

// degradedErrLocked returns the typed degradation error, or nil.
// Callers hold db.mu.
func (db *DB) degradedErrLocked() error {
	if db.degraded == nil {
		return nil
	}
	return db.degraded
}

// degradedErr is degradedErrLocked for callers not holding db.mu, with
// a lock-free fast path for the (overwhelmingly common) healthy case.
func (db *DB) degradedErr() error {
	if !db.degradedFlag.Load() {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.degradedErrLocked()
}

// noteBackgroundFailure applies the retry/degrade policy after one
// failed background job attempt: corruption degrades immediately;
// transient and out-of-space errors degrade once consecutive failures
// of the same job exceed Options.MaxBackgroundRetries (each retry
// having backed off in the worker loop). Callers hold db.mu and own
// the per-job consecutive-failure counter.
func (db *DB) noteBackgroundFailure(op string, failures int, err error) {
	db.m.BgRetries.Add(1)
	db.lastBgErr = err
	db.setBgErrLocked(op, err)
	if classifyError(err) == KindCorruption || failures > db.opts.MaxBackgroundRetries {
		db.degradeLocked(op, err)
	}
}
