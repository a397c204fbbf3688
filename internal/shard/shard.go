// Package shard provides the routing machinery behind sharded stream
// summaries: deterministic assignment of ingest batches to S
// independent sub-summaries, so a single logical stream can be split
// for parallel ingest and fanned back in on read.
//
// The paper's summaries are mergeable — the union of per-shard sample
// sets is itself a valid sample of the whole stream, with error bounded
// by the worst shard's — so *which* shard a batch lands on never
// affects correctness, only load balance. That freedom is what makes
// round-robin assignment safe: batches rotate across shards, each shard
// sees an arbitrary subsample, and the merged hull still satisfies the
// containment guarantee.
//
// Determinism matters for one consumer: write-ahead-log recovery. A
// replayed log applies batches one at a time in log order, and a
// RoundRobin counter started from zero assigns them exactly as the
// original serialized ingest did, so a recovered sharded summary is
// bit-identical to the served one. (Concurrent ingest outside a
// serializing lock assigns batches in arrival order, which is
// nondeterministic but — by mergeability — still correct.)
package shard

import "sync/atomic"

// RoundRobin deals successive batches to shards 0..shards-1 cyclically.
// It is safe for concurrent use; each Next is one atomic add.
type RoundRobin struct {
	next   atomic.Uint64
	shards uint64
}

// NewRoundRobin returns a dealer over the given number of shards
// (must be ≥ 1).
func NewRoundRobin(shards int) *RoundRobin {
	if shards < 1 {
		panic("shard: need ≥ 1 shard")
	}
	return &RoundRobin{shards: uint64(shards)}
}

// Next returns the shard index for the next batch.
func (r *RoundRobin) Next() int {
	return int((r.next.Add(1) - 1) % r.shards)
}
