package domain

import (
	"fmt"

	"parsge/internal/graph"
)

// Incremental index maintenance under edge updates.
//
// A node's NLF key counts, signatures, key masks and self-loop bit
// depend only on its own adjacency rows, and every endpoint of a changed
// arc is in the update's touched set — so after an edge batch, only the
// touched vertices' counts, and with them their bits in the threshold
// rows, or their signatures and masks, can differ; the rest are carried
// over from the previous index (rows and signatures shared
// structurally).
// Node labels never change under edge updates (graph.EdgeUpdate cannot
// add or relabel nodes), so the byLabel buckets and the label entropy
// are carried over verbatim; the degree moments behind MeanDegree and
// DegreeSkew are adjusted by exact integer deltas and re-derived
// through the same fillDegreeStats pipeline a fresh build uses, which
// is what makes the incremental stats bit-identical to a rebuild.

// ApplyUpdates derives the index of newG from the index of oldG, where
// newG = oldG.ApplyUpdates(batch) and touched is that call's changed
// endpoint set. ix must be the index of oldG. The receiver is not
// modified; untouched per-node state is shared between the two indexes.
//
// The result is bit-identical to NewIndex(newG) — the property the
// differential update battery pins with IndexEqual.
func (ix *Index) ApplyUpdates(oldG, newG *graph.Graph, touched []int32) *Index {
	nix := &Index{
		byLabel: ix.byLabel, // node labels are immutable under edge updates
		nt:      ix.nt,
		gen:     ix.gen + 1,
	}
	sumDeg, sumSqDeg := ix.sumDeg, ix.sumSqDeg
	for _, v := range touched {
		od, nd := int64(oldG.Degree(v)), int64(newG.Degree(v))
		sumDeg += nd - od
		sumSqDeg += nd*nd - od*od
	}
	nix.sumDeg, nix.sumSqDeg = sumDeg, sumSqDeg
	st := TargetStats{
		Nodes:        ix.stats.Nodes,
		Edges:        newG.NumEdges(),
		Labels:       ix.stats.Labels,
		LabelEntropy: ix.stats.LabelEntropy,
	}
	fillDegreeStats(&st, sumDeg, sumSqDeg)
	nix.stats = st
	// A self-loop is an arc whose endpoints are both v, so only touched
	// vertices can gain or lose one.
	nix.loops = ix.loops.Clone()
	for _, vt := range touched {
		if newG.HasEdge(vt, vt) {
			nix.loops.Set(int(vt))
		} else {
			nix.loops.Clear(int(vt))
		}
	}

	// The threshold rows are carried, or counted afresh where they
	// cannot be. An index without them counts newG in full, since the
	// update may have brought its rows within the bounds; where they
	// still do not fit, the signatures are carried instead.
	if ix.nlf != nil {
		nix.nlf = ix.nlf.applyUpdates(oldG, newG, touched)
	}
	if nix.nlf == nil {
		if nix.nlf = newNLFRows(newG, nix.byLabel); nix.nlf == nil {
			nix.fillSigs(newG, ix, touched)
		}
	}
	ix.seedRows(nix, newG, touched)
	return nix
}

// rebatchMinNodes is the smallest target whose rows are built afresh
// after enough updates (see rebatch); below it a batch of rows weighs at
// most 128 KiB, and carrying the rows is always cheaper.
const rebatchMinNodes = 1024

// rebatch reports whether rows carried through updates that touched
// churn vertices, repeats included, are built afresh instead. A clean
// build allocates rows in batches, so one carried row keeps its whole
// batch alive: on a target of at least rebatchMinNodes, once the
// updates since the build have touched half the vertices, the rows are
// built again, which keeps the dead rows below half a batch. The rule
// covers the BitGraph and the threshold rows.
func rebatch(n, churn int) bool { return n >= rebatchMinNodes && 2*churn > n }

// seedRows carries ix's BitGraph cache forward to nix when ix has one
// for its generation: its rows change only at the touched vertices
// (untouched rows shared), tagged with the new generation. A stale or
// absent cache is simply not carried — Rows builds lazily on demand.
func (ix *Index) seedRows(nix *Index, newG *graph.Graph, touched []int32) {
	c := ix.cachedRows()
	if c == nil {
		return
	}
	churn := c.churn + len(touched)
	if rebatch(ix.nt, churn) {
		nix.rowEntry(newG)
		return
	}
	nix.rowCache.Store(&bitRows{rows: c.rows.Rebuild(newG, touched), epoch: nix.gen, churn: churn})
}

// IndexEqual compares two indexes for exact equality — label buckets,
// cached statistics (including every float bit), the self-loop set, the
// threshold rows, per-node signature contents and key masks. It returns
// a description of the first difference for test diagnostics, or ""
// when equal. It is the oracle relation of the incremental-vs-rebuild
// differential battery.
func IndexEqual(a, b *Index) (bool, string) {
	if a == nil || b == nil {
		if a == b {
			return true, ""
		}
		return false, "one index is nil"
	}
	if a.nt != b.nt {
		return false, fmt.Sprintf("node count %d vs %d", a.nt, b.nt)
	}
	if a.HasRows() && b.HasRows() {
		// Rows are built lazily, so a one-sided cache is not a difference;
		// when both sides have current-generation rows they must encode
		// identical adjacency (the incremental-vs-rebuild row hook).
		if ok, why := graph.BitGraphEqual(a.cachedRows().rows, b.cachedRows().rows); !ok {
			return false, "bitset rows: " + why
		}
	}
	if ok, why := nlfRowsEqual(a.nlf, b.nlf); !ok {
		return false, "NLF threshold rows: " + why
	}
	if a.stats != b.stats {
		return false, fmt.Sprintf("stats %+v vs %+v", a.stats, b.stats)
	}
	if a.sumDeg != b.sumDeg || a.sumSqDeg != b.sumSqDeg {
		return false, fmt.Sprintf("degree moments (%d,%d) vs (%d,%d)", a.sumDeg, a.sumSqDeg, b.sumDeg, b.sumSqDeg)
	}
	if len(a.byLabel) != len(b.byLabel) {
		return false, fmt.Sprintf("label bucket count %d vs %d", len(a.byLabel), len(b.byLabel))
	}
	for l, av := range a.byLabel {
		bv, ok := b.byLabel[l]
		if !ok || len(av) != len(bv) {
			return false, fmt.Sprintf("label %d bucket differs", l)
		}
		for i := range av {
			if av[i] != bv[i] {
				return false, fmt.Sprintf("label %d bucket entry %d: %d vs %d", l, i, av[i], bv[i])
			}
		}
	}
	if !a.loops.Equal(b.loops) {
		return false, fmt.Sprintf("self-loop set %v vs %v", a.loops, b.loops)
	}
	if len(a.outMask) != len(b.outMask) || len(a.inMask) != len(b.inMask) {
		return false, fmt.Sprintf("key mask table length %d/%d vs %d/%d", len(a.outMask), len(a.inMask), len(b.outMask), len(b.inMask))
	}
	for v := range a.outMask {
		if a.outMask[v] != b.outMask[v] || a.inMask[v] != b.inMask[v] {
			return false, fmt.Sprintf("node %d key mask differs", v)
		}
	}
	for _, dir := range []struct {
		name string
		a, b []nlfSig
	}{{"out", a.out, b.out}, {"in", a.in, b.in}} {
		if len(dir.a) != len(dir.b) {
			return false, fmt.Sprintf("%s signature table length %d vs %d", dir.name, len(dir.a), len(dir.b))
		}
		for v := range dir.a {
			sa, sb := dir.a[v], dir.b[v]
			if len(sa.keys) != len(sb.keys) {
				return false, fmt.Sprintf("node %d %s signature: %d keys vs %d", v, dir.name, len(sa.keys), len(sb.keys))
			}
			for i := range sa.keys {
				if sa.keys[i] != sb.keys[i] || sa.counts[i] != sb.counts[i] {
					return false, fmt.Sprintf("node %d %s signature entry %d differs", v, dir.name, i)
				}
			}
		}
	}
	return true, ""
}
