package parsge

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"parsge/internal/census"
)

// This file is the public face of the motif-census subsystem
// (internal/census): enumerate every connected k-vertex subgraph of the
// session's target and report counts per induced-subgraph isomorphism
// class. It is the inverse of the library's usual question — not "where
// does this pattern occur" but "which patterns occur, and how often" —
// the network-motif analysis run on biological and social graphs.

// MinCensusK and MaxCensusK bound CensusOptions.K.
const (
	MinCensusK = census.MinK
	MaxCensusK = census.MaxK
)

// CensusOptions configures Target.Census.
type CensusOptions struct {
	// K is the subgraph size, in [MinCensusK, MaxCensusK].
	K int
	// Workers sets the parallel worker count: 0 or 1 runs the
	// sequential walker, AutoWorkers sizes the pool as
	// min(GOMAXPROCS, target nodes).
	Workers int
	// Timeout aborts the census after the given wall time (0 = none),
	// layered over ctx exactly like Options.Timeout.
	Timeout time.Duration
}

// CensusClass is one isomorphism class of a census: a count plus a
// representative of the class.
type CensusClass struct {
	// Count is the number of connected k-vertex sets of the target whose
	// induced subgraph belongs to this class.
	Count int64
	// Pattern is the class representative in canonical numbering —
	// directly usable as a query pattern (under InducedIso semantics it
	// matches exactly the counted vertex sets, Count × automorphisms
	// ordered embeddings).
	Pattern *Graph
	// Encoding is the canonical encoding identifying the class (the
	// CanonicalPattern bytes of Pattern); Hash is CanonicalHash(Pattern),
	// the 64-bit hash of those bytes.
	// Treat the bytes as read-only.
	Encoding []byte
	Hash     uint64
}

// CensusResult reports one census run.
type CensusResult struct {
	// K is the subgraph size the census ran at.
	K int
	// Subgraphs is the total number of connected k-vertex subgraphs
	// found (the sum of all class counts).
	Subgraphs int64
	// Classes is sorted by descending Count (ties by encoding).
	Classes []CensusClass
	// MemoMisses counts the canonizations this run paid, one per
	// subgraph shape the class memo had not met; every other subgraph
	// counts as a MemoHit, so the two sum to Subgraphs. The memo
	// outlives the run (see Target.Census), so a repeated census at one
	// K misses only on subgraphs it has not seen.
	MemoHits, MemoMisses int64
	// PerWorkerSubgraphs breaks Subgraphs down by walker (parallel runs
	// only): the work-division profile of the root split.
	PerWorkerSubgraphs []int64
	// TimedOut reports the census was cut short by ctx or Timeout;
	// counts are then lower bounds.
	TimedOut bool
	// Duration is the wall time of the run.
	Duration time.Duration
	// Epoch is the target mutation epoch the census ran against (see
	// Target.ApplyUpdates); caches compare it with Target.Epoch() to
	// drop censuses of superseded graph versions.
	Epoch uint64
}

// Census enumerates every connected k-vertex subgraph of the session's
// target (ESU enumeration — each vertex set is found exactly once) and
// returns per-isomorphism-class counts with a representative pattern
// graph per class. Classes are induced: two vertex sets fall in the
// same class when their induced subgraphs — directions, labels,
// self-loops and parallel edges included — are isomorphic.
//
// Subgraphs are classified through a memo the Target keeps per K across
// runs and epochs: its keys describe labelled subgraphs, not the graph
// they came from, so a later census, or one after ApplyUpdates, pays a
// canonization only for subgraph shapes no earlier run met. The memo's
// retained size is bounded by a constant.
//
// Cancelling ctx (or exceeding opts.Timeout) aborts the run promptly;
// the partial result has TimedOut set and all counts are lower bounds.
// Safe to call concurrently with any other queries on the same Target;
// the run is folded into Stats() under the plan bucket "census:k=<K>".
func (t *Target) Census(ctx context.Context, opts CensusOptions) (CensusResult, error) {
	if opts.K < MinCensusK || opts.K > MaxCensusK {
		return CensusResult{}, fmt.Errorf("parsge: census K must be in [%d, %d], got %d", MinCensusK, MaxCensusK, opts.K)
	}
	st := t.state.Load() // one snapshot for the whole run, like every query
	workers := opts.Workers
	if workers == AutoWorkers {
		workers = runtime.GOMAXPROCS(0)
		if n := st.g.NumNodes(); workers > n {
			workers = n
		}
	}
	if workers < 1 {
		workers = 1
	}
	qctx, stop := queryContext(ctx, opts.Timeout)
	defer stop()
	start := time.Now()
	res, err := census.Run(qctx, st.g, census.Options{K: opts.K, Workers: workers, Memos: &t.censusMemos})
	if err != nil {
		return CensusResult{}, err
	}
	out := CensusResult{
		K:                  res.K,
		Subgraphs:          res.Subgraphs,
		Classes:            make([]CensusClass, len(res.Classes)),
		MemoHits:           res.MemoHits,
		MemoMisses:         res.MemoMisses,
		PerWorkerSubgraphs: res.PerWorkerSubgraphs,
		TimedOut:           res.Aborted,
		Duration:           time.Since(start),
		Epoch:              st.epoch,
	}
	for i, c := range res.Classes {
		out.Classes[i] = CensusClass{Count: c.Count, Pattern: c.Rep, Encoding: c.Encoding, Hash: c.Hash}
	}
	t.stats.recordCensus(&out)
	return out, nil
}
