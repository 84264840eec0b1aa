package replica

import (
	"lsmlab/internal/core"
	"lsmlab/internal/server"
)

// Engine adapts a follower store for serving: it embeds the store's
// own server.Engine surface but answers SeqVector — the WATERMARK
// verb — with the receiver's applied vector, which is denominated in
// LEADER sequence numbers. The follower's private sequence space is an
// implementation detail (repair writes consume local sequences the
// leader never issued); what a client's read-your-writes token can be
// compared against is how much of the leader's history this follower
// has applied, and that is exactly AppliedVector.
type Engine struct {
	server.Engine
	recv *Receiver
}

// NewEngine wraps a follower store (or sharded store) and its receiver.
func NewEngine(e server.Engine, r *Receiver) *Engine {
	return &Engine{Engine: e, recv: r}
}

// SeqVector reports the applied-through leader sequence per shard.
func (e *Engine) SeqVector() []uint64 { return e.recv.AppliedVector() }

// Stats adds the receiver's replication counters to the store's view,
// so a follower's STATS verb and /metrics endpoint report how much
// shipped and repaired data it has ingested.
func (e *Engine) Stats() core.Stats {
	v := e.Engine.Stats()
	st := e.recv.Stats()
	v.Counters.ReplBatchesApplied = int64(st.Batches)
	v.Counters.ReplGapsSignaled = int64(st.Gaps)
	v.Counters.ReplRepairOps = int64(st.RepairOps)
	return v
}
