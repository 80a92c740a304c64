package graph

import (
	"fmt"
	"slices"

	"parsge/internal/bitset"
)

// BitGraph is the dense bitset-adjacency kernel layer: one bitset row
// per vertex and direction, so the enumeration hot paths (back-edge
// verification, induced non-edge checks, per-direction neighborhood
// subtraction, arc-consistency support tests) become word-parallel set
// ops instead of per-neighbor binary searches. When the edge-label
// alphabet is small a per-(direction, label) row variant rides along,
// making labeled adjacency tests exact without touching the CSR.
//
// A BitGraph is immutable after construction and safe for concurrent
// readers, like the Graph it mirrors. It is a cache, not a replacement:
// rows record edge *existence* only (parallel edges collapse), which is
// exactly what the hot-path predicates ask.
type BitGraph struct {
	n int
	// Out[v] / In[v] hold the out-/in-neighbors of v (self-loops
	// included), one bit per target vertex. At a vertex that is
	// SymmetricAt, In[v] is Out[v], the same row stored once; only the
	// other vertices own an In row.
	Out, In []*bitset.Set
	// OutLab[l][v] / InLab[l][v] hold the neighbors reachable over an
	// edge labeled l, built only when the edge-label alphabet has at
	// most MaxLabelRows members and n ≤ LabelRowLimit. When present the
	// maps cover the alphabet exactly: a label missing from the map has
	// no edge in the graph. With a one-label alphabet the label rows
	// equal the direction rows bit for bit, so OutLab[l] and InLab[l]
	// are the Out and In slices themselves, stored once; with more
	// labels InLab[l][v] is OutLab[l][v] wherever In[v] is Out[v].
	OutLab, InLab map[Label][]*bitset.Set
}

// DenseRowLimit is the node count up to which dense bitset adjacency
// rows are built (O(n²) bits — 32 MiB per direction at the limit).
// Above it NewBitGraph returns nil and every kernel consumer falls back
// to the sorted-slice CSR paths.
const DenseRowLimit = 1 << 14

// LabelRowLimit is the tighter node-count bound for the per-edge-label
// row variant: label rows multiply the O(n²) bit cost by the alphabet
// size, so they stop at 2^12 nodes (2 MiB per label and direction).
const LabelRowLimit = 1 << 12

// MaxLabelRows bounds the edge-label alphabet for which per-label rows
// are built.
const MaxLabelRows = 4

// NewBitGraph builds the dense adjacency rows of g, or returns nil when
// g exceeds DenseRowLimit nodes (the sorted-slice fallback rule).
func NewBitGraph(g *Graph) *BitGraph {
	n := g.NumNodes()
	if n > DenseRowLimit {
		return nil
	}
	var asym []int32
	for v := int32(0); v < int32(n); v++ {
		if !g.SymmetricAt(v) {
			asym = append(asym, v)
		}
	}
	bg := &BitGraph{n: n}
	bg.Out, bg.In = rowPairs(n, asym)
	labels, ok := edgeLabelAlphabet(g)
	if ok && n <= LabelRowLimit {
		bg.OutLab = make(map[Label][]*bitset.Set, len(labels))
		bg.InLab = make(map[Label][]*bitset.Set, len(labels))
		for _, l := range labels {
			bg.OutLab[l], bg.InLab[l] = bg.Out, bg.In // one label: shared
			if len(labels) > 1 {
				bg.OutLab[l], bg.InLab[l] = rowPairs(n, asym)
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		bg.fillRows(g, v)
	}
	return bg
}

// rowPairs returns n empty out rows of n bits from one batch, and the
// in rows: the out rows themselves, except at the asym vertices, whose
// rows come from a second batch.
func rowPairs(n int, asym []int32) (out, in []*bitset.Set) {
	batch := bitset.NewBatch(n, n)
	out = make([]*bitset.Set, n)
	for v := range out {
		out[v] = &batch[v]
	}
	in = slices.Clone(out)
	own := bitset.NewBatch(len(asym), n)
	for i, v := range asym {
		in[v] = &own[i]
	}
	return out, in
}

// NumNodes returns the number of vertices the rows cover.
func (bg *BitGraph) NumNodes() int { return bg.n }

// HasLabelRows reports whether the per-(direction, label) variant was
// built; when true, a label absent from OutLab/InLab has no edge.
func (bg *BitGraph) HasLabelRows() bool { return bg.OutLab != nil }

// fillRows sets the bits of every row of vertex v from g, whose rows
// must be empty: the out/in direction rows and, when label rows are
// enabled, v's row under every label of the alphabet. An in row that
// is the out row is filled once.
func (bg *BitGraph) fillRows(g *Graph, v int32) {
	shared := bg.In[v] == bg.Out[v]
	for _, u := range g.OutNeighbors(v) {
		bg.Out[v].Set(int(u))
	}
	if !shared {
		for _, u := range g.InNeighbors(v) {
			bg.In[v].Set(int(u))
		}
	}
	if len(bg.OutLab) < 2 {
		return // no label rows, or shared with Out/In
	}
	outN, outL := g.OutNeighbors(v), g.OutEdgeLabels(v)
	for i, u := range outN {
		bg.OutLab[outL[i]][v].Set(int(u))
	}
	if shared {
		return
	}
	inN, inL := g.InNeighbors(v), g.InEdgeLabels(v)
	for i, u := range inN {
		bg.InLab[inL[i]][v].Set(int(u))
	}
}

// Rebuild returns a BitGraph for g2, sharing every row of bg whose
// vertex is untouched and rebuilding only the touched vertices' rows —
// the incremental-maintenance step under Target.ApplyUpdates. Both
// endpoints of every changed arc appear in touched, so per-vertex
// rebuilds cover every changed row, and only a touched vertex can
// become or stop being SymmetricAt: its In row is decided again, its
// own row or its Out row. The label-row variant covers the
// edge-label alphabet exactly (a label absent from the maps has no
// edge), so ANY alphabet change — a new label, or a label vanishing
// with its last edge — invalidates the row structure, not just row
// contents; Rebuild recomputes the alphabet and falls back to a
// from-scratch NewBitGraph when it no longer matches (likewise on a
// node-count change). Correctness never depends on the incremental
// path, and the result is always bit-identical to a clean build of g2.
func (bg *BitGraph) Rebuild(g2 *Graph, touched []int32) *BitGraph {
	if bg == nil || g2.NumNodes() != bg.n {
		return NewBitGraph(g2)
	}
	labels, ok := edgeLabelAlphabet(g2)
	switch {
	case bg.OutLab == nil:
		// No label rows yet; a clean build of g2 would create them iff
		// its alphabet is small enough, so only that case forces one.
		if ok && bg.n <= LabelRowLimit {
			return NewBitGraph(g2)
		}
	case !ok || len(labels) != len(bg.OutLab):
		return NewBitGraph(g2)
	default:
		for _, l := range labels {
			if _, have := bg.OutLab[l]; !have {
				return NewBitGraph(g2)
			}
		}
	}
	n2 := &BitGraph{n: bg.n, Out: slices.Clone(bg.Out), In: slices.Clone(bg.In)}
	if bg.OutLab != nil {
		n2.OutLab = make(map[Label][]*bitset.Set, len(bg.OutLab))
		n2.InLab = make(map[Label][]*bitset.Set, len(bg.InLab))
		for l := range bg.OutLab {
			n2.OutLab[l], n2.InLab[l] = n2.Out, n2.In // one label: shared
			if len(bg.OutLab) > 1 {
				n2.OutLab[l] = slices.Clone(bg.OutLab[l])
				n2.InLab[l] = slices.Clone(bg.InLab[l])
			}
		}
	}
	for _, v := range touched {
		sym := g2.SymmetricAt(v)
		n2.Out[v], n2.In[v] = newRowPair(bg.n, sym)
		if len(n2.OutLab) > 1 {
			for l := range n2.OutLab {
				n2.OutLab[l][v], n2.InLab[l][v] = newRowPair(bg.n, sym)
			}
		}
		n2.fillRows(g2, v)
	}
	return n2
}

// newRowPair returns an empty out row of n bits and its in row: the
// same row when shared, else a row of its own.
func newRowPair(n int, shared bool) (out, in *bitset.Set) {
	out = bitset.New(n)
	if shared {
		return out, out
	}
	return out, bitset.New(n)
}

// BitGraphEqual reports whether two BitGraphs encode identical
// adjacency (rows and label rows), with a short human-readable
// diagnosis of the first difference — the differential hook
// domain.IndexEqual uses to pin incremental row maintenance against a
// from-scratch rebuild.
func BitGraphEqual(a, b *BitGraph) (bool, string) {
	if (a == nil) != (b == nil) {
		return false, "one BitGraph is nil"
	}
	if a == nil {
		return true, ""
	}
	if a.n != b.n {
		return false, "node counts differ"
	}
	for v := 0; v < a.n; v++ {
		if !a.Out[v].Equal(b.Out[v]) {
			return false, fmt.Sprintf("out row differs at vertex %d", v)
		}
		if !a.In[v].Equal(b.In[v]) {
			return false, fmt.Sprintf("in row differs at vertex %d", v)
		}
	}
	if (a.OutLab == nil) != (b.OutLab == nil) || len(a.OutLab) != len(b.OutLab) {
		return false, "label-row alphabets differ"
	}
	for l, rows := range a.OutLab {
		or, ok := b.OutLab[l]
		ir := b.InLab[l]
		if !ok {
			return false, "label-row alphabets differ"
		}
		for v := 0; v < a.n; v++ {
			if !rows[v].Equal(or[v]) {
				return false, fmt.Sprintf("label %d out row differs at vertex %d", l, v)
			}
			if !a.InLab[l][v].Equal(ir[v]) {
				return false, fmt.Sprintf("label %d in row differs at vertex %d", l, v)
			}
		}
	}
	return true, ""
}

// edgeLabelAlphabet collects the distinct edge labels of g, giving up
// (ok=false) as soon as the alphabet exceeds MaxLabelRows. The alphabet
// is at most MaxLabelRows long, so a linear scan of it beats a map.
func edgeLabelAlphabet(g *Graph) ([]Label, bool) {
	labels := make([]Label, 0, MaxLabelRows)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, l := range g.OutEdgeLabels(v) {
			if !slices.Contains(labels, l) {
				if len(labels) == MaxLabelRows {
					return nil, false
				}
				labels = append(labels, l)
			}
		}
	}
	return labels, true
}
