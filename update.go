package parsge

import (
	"context"
	"fmt"
	"time"

	"parsge/internal/domain"
	"parsge/internal/graph"
)

// This file is the graph-mutation API of a Target session: batched edge
// updates applied under an epoch counter, with the target-side index
// maintained incrementally — only the touched vertices' NLF key counts
// and the degree moments behind the cached statistics are recomputed,
// never the whole index (the differential battery in update_test.go
// pins the incremental state bit-identical to a full rebuild). The
// epoch is the cache-invalidation currency of the service layer: every
// Result and CensusResult carries the epoch it executed against, and
// epoch-tagged cache entries die with their graph version.

// EdgeUpdate is one edge mutation of an update batch; see
// Target.ApplyUpdates. The node set and node labels of a target are
// immutable — updates rewire edges only.
type EdgeUpdate = graph.EdgeUpdate

// Edge is one labeled arc as reported by Graph.Edges.
type Edge = graph.Edge

// UpdateResult reports one applied update batch.
type UpdateResult struct {
	// Epoch is the target's mutation epoch after the batch: unchanged
	// when the batch had no net effect, incremented by one otherwise.
	Epoch uint64
	// Applied is the number of arcs actually added plus removed, net of
	// add/remove pairs within the batch that cancelled each other.
	Applied int
	// NoOps counts removals of absent arcs (tolerated, not errors —
	// replayed or duplicated update streams are expected inputs).
	NoOps int
	// TouchedVertices is the number of distinct endpoints of changed
	// arcs — the vertices whose index state was recomputed.
	TouchedVertices int
	// Duration is the wall time of graph rebuild plus index
	// maintenance.
	Duration time.Duration
}

// Epoch returns the target's current mutation epoch: 0 at NewTarget,
// incremented once per effective ApplyUpdates batch. A cache keyed on
// this target compares entry epochs against it to invalidate answers
// computed on superseded graph versions.
func (t *Target) Epoch() uint64 { return t.state.Load().epoch }

// ApplyUpdates applies a batch of edge additions and removals to the
// session's target. The batch is atomic: queries either see the whole
// batch or none of it, never a partial application — concurrent queries
// already running continue undisturbed on the snapshot they started
// with, and queries issued after ApplyUpdates returns see the updated
// graph (their results carry the new epoch).
//
// Update semantics are those of graph.ApplyUpdates: adds may create
// parallel edges exactly like Builder.AddEdge, removals consume one
// matching (From, To, Label) arc and tolerate absent ones. The node set
// and node labels are immutable; an update referencing a node outside
// the target fails the whole batch.
//
// The target-side index is maintained incrementally — label buckets and
// the NLF data of untouched vertices are shared with the previous
// snapshot, and cached TargetStats are adjusted by exact integer deltas
// — so the cost is proportional to the touched vertices' degrees, not
// the graph. Batches are serialized with respect to each other; ctx
// cancellation before the commit point discards all work (the epoch
// does not advance).
func (t *Target) ApplyUpdates(ctx context.Context, updates []EdgeUpdate) (UpdateResult, error) {
	if ctx == nil {
		ctx = context.Background() //sgelint:ignore ctxbackground documented nil-ctx default at the public update boundary, mirroring queryContext
	}
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	st := t.state.Load()
	out := UpdateResult{Epoch: st.epoch}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	start := time.Now()
	g2, touched, applied, noops, err := st.g.ApplyUpdates(updates)
	if err != nil {
		return out, fmt.Errorf("parsge: %w", err)
	}
	out.NoOps = noops
	if g2 == st.g {
		// No net effect: same graph, same epoch, caches stay valid.
		out.Duration = time.Since(start)
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		// Cancelled before commit: discard the built graph.
		return out, err
	}
	var ix2 *domain.Index
	if st.index != nil {
		ix2 = st.index.ApplyUpdates(st.g, g2, touched)
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	ns := &targetState{
		g:             g2,
		index:         ix2,
		autoAlgorithm: chooseAlgorithm(Auto, g2),
		epoch:         st.epoch + 1,
	}
	if n := g2.NumNodes(); n > 0 {
		ns.meanDegree = 2 * float64(g2.NumEdges()) / float64(n)
	}
	t.state.Store(ns)
	out.Epoch = ns.epoch
	out.Applied = applied
	out.TouchedVertices = len(touched)
	out.Duration = time.Since(start)
	return out, nil
}

// HasIndex reports whether the current snapshot carries a label/NLF
// index (false between ReleaseIndex and the next EnsureIndex).
func (t *Target) HasIndex() bool { return t.state.Load().index != nil }

// ReleaseIndex drops the target's label/NLF index, freeing its memory
// while keeping the target fully queryable — preprocessing falls back
// to whole-vertex-set scans. The epoch is unchanged: the graph itself
// did not move, so cached results remain valid. It returns whether an
// index was actually dropped. The service Router uses this to evict
// cold targets' indexes under an LRU budget; EnsureIndex rebuilds on
// demand.
func (t *Target) ReleaseIndex() bool {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	st := t.state.Load()
	if st.index == nil {
		return false
	}
	ns := *st
	ns.index = nil
	t.state.Store(&ns)
	return true
}

// EnsureIndex rebuilds the label/NLF index if the current snapshot
// lacks one. It returns whether an index was (re)built. Like
// ReleaseIndex it does not advance the epoch — index presence changes
// preprocessing cost, never results.
func (t *Target) EnsureIndex() bool {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	st := t.state.Load()
	if st.index != nil {
		return false
	}
	ns := *st
	ns.index = domain.NewIndex(st.g)
	t.state.Store(&ns)
	return true
}
