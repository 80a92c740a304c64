package domain

import (
	"fmt"
	"math"
	"slices"

	"parsge/internal/bitset"
	"parsge/internal/graph"
)

// Threshold rows: the exact NLF filter as set algebra. Multiset
// domination asks, per pattern key k with count c, for a target node
// with at least c distinct key-k neighbors (at least one under
// homomorphism). The threshold row (k, c) holds exactly those target
// nodes, so a pattern node's NLF-consistent candidates are its label
// bucket ANDed with one row per key of its signature — a word at a time
// instead of one signature merge per candidate. The rows are nested,
// (k, c+1) ⊆ (k, c), and a key has rows up to the largest count any
// target node has for it.
//
// NewIndex counts them straight from the CSR, for both directions or
// for neither: only for targets of at most graph.DenseRowLimit nodes,
// and only while both directions' rows together number at most twice
// the target's node count, so they never outweigh the adjacency rows.
// An index with rows keeps no per-node signatures; past the bounds it
// keeps them, and the unary filter merges them per candidate. The in
// family stores a row only where it differs from the out family: a
// vertex that is graph.SymmetricAt counts the same keys in both
// directions, so on a symmetric target every in row is its out row.

// nlfRows is an Index's threshold rows. A key (neighbor label nl, edge
// label el) owns slot (nl−labMin)·elSpan + (el−elMin) when both labels
// lie in the index's ranges; a key outside them occurs at no target
// node. Dense slots keep the counts free of maps and sorts.
type nlfRows struct {
	labMin, elMin   int64
	labSpan, elSpan int
	out, in         *thresholdRows
	// churn counts the vertices updates have touched since the rows
	// were counted, repeats included (see applyUpdates).
	churn int
}

// thresholdRows is one direction's rows: rows[first[s]+c−1] holds the
// target nodes with at least c distinct neighbors of slot s's key, for
// c = 1..depth[s] (depth 0: no node has the key).
type thresholdRows struct {
	first, depth []int32
	rows         []*bitset.Set
}

// maxKeySlots bounds the key table of a target of n nodes, so a sparse
// label numbering cannot make the table outweigh the rows.
func maxKeySlots(n int) int { return max(n, 256) }

// newNLFRows counts the threshold rows of g, whose label buckets are
// byLabel, or returns nil when g exceeds graph.DenseRowLimit nodes, its
// key table maxKeySlots, or its rows the budget. A first pass counts
// every vertex's keys into the depth of each slot; a second sets the
// out family's bits. The in family is the out family laid out for the
// in depths, and only the vertices that are not SymmetricAt move their
// bits in it, copying each row they change.
func newNLFRows(g *graph.Graph, byLabel map[graph.Label][]int32) *nlfRows {
	n := g.NumNodes()
	if n > graph.DenseRowLimit {
		return nil
	}
	nr := newKeyTable(g, byLabel)
	if nr == nil {
		return nil
	}
	out, in := nr.newCounts(), nr.newCounts()
	dOut, dIn := make([]int32, len(out.count)), make([]int32, len(out.count))
	var asym []int32
	for v := int32(0); v < int32(n); v++ {
		out.load(nr, g, v, true)
		out.raise(dOut)
		if g.SymmetricAt(v) {
			out.raise(dIn)
			continue
		}
		asym = append(asym, v)
		in.load(nr, g, v, false)
		in.raise(dIn)
	}
	if !rowsFit(dOut, dIn, n) {
		return nil
	}
	empty := &thresholdRows{first: make([]int32, len(dOut)), depth: make([]int32, len(dOut))}
	nr.out, _ = empty.relayout(dOut, n)
	for v := int32(0); v < int32(n); v++ {
		out.load(nr, g, v, true)
		for _, s := range out.slots {
			for _, r := range nr.out.rows[nr.out.first[s]:][:out.count[s]] {
				r.Set(int(v))
			}
		}
	}
	var owned []bool
	nr.in, owned = nr.out.relayout(dIn, n)
	for _, v := range asym {
		out.load(nr, g, v, true)
		in.load(nr, g, v, false)
		diffCounts(out, in, func(s int, oc, ic int32) { nr.in.move(s, v, oc, ic, owned) })
	}
	return nr
}

// newKeyTable returns nlfRows without rows whose key table spans g's
// node labels (byLabel's) and edge labels, or nil when that table would
// exceed maxKeySlots.
func newKeyTable(g *graph.Graph, byLabel map[graph.Label][]int32) *nlfRows {
	labLo, labHi := int64(math.MaxInt64), int64(math.MinInt64)
	for l := range byLabel {
		labLo, labHi = min(labLo, int64(l)), max(labHi, int64(l))
	}
	elLo, elHi := int64(math.MaxInt64), int64(math.MinInt64)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		for _, l := range g.OutEdgeLabels(v) {
			elLo, elHi = min(elLo, int64(l)), max(elHi, int64(l))
		}
	}
	nr := &nlfRows{}
	if labLo <= labHi && elLo <= elHi {
		nr.labMin, nr.labSpan = labLo, int(labHi-labLo)+1
		nr.elMin, nr.elSpan = elLo, int(elHi-elLo)+1
	}
	// Each span is bounded first, so the product cannot overflow.
	if limit := maxKeySlots(g.NumNodes()); max(nr.labSpan, nr.elSpan) > limit || nr.labSpan*nr.elSpan > limit {
		return nil
	}
	return nr
}

// keyCounts is one vertex's NLF signature in one direction, counted
// into the slots of a key table: count[s] distinct neighbors of slot
// s's key, and slots lists the slots with a count, through which the
// next load resets them. Counting neither sorts nor allocates per
// vertex.
type keyCounts struct {
	count []int32
	slots []int32
}

// newCounts returns empty counts over nr's key table.
func (nr *nlfRows) newCounts() *keyCounts {
	return &keyCounts{count: make([]int32, nr.labSpan*nr.elSpan)}
}

// load counts v's distinct (neighbor, edge label) incidences in g, out
// or in, by key: equal-label parallel arcs count once, as in
// appendNLFKeys. It reports false when a key lies outside nr's table.
func (kc *keyCounts) load(nr *nlfRows, g *graph.Graph, v int32, out bool) bool {
	for _, s := range kc.slots {
		kc.count[s] = 0
	}
	kc.slots = kc.slots[:0]
	adj, labs := g.InNeighbors(v), g.InEdgeLabels(v)
	if out {
		adj, labs = g.OutNeighbors(v), g.OutEdgeLabels(v)
	}
	for i := 0; i < len(adj); {
		j := i + 1
		for j < len(adj) && adj[j] == adj[i] {
			j++
		}
		nl := g.NodeLabel(adj[i])
		for k := i; k < j; k++ {
			if slices.Contains(labs[i:k], labs[k]) {
				continue
			}
			s := nr.slotOf(nl, labs[k])
			if s < 0 {
				return false
			}
			if kc.count[s] == 0 {
				kc.slots = append(kc.slots, int32(s))
			}
			kc.count[s]++
		}
		i = j
	}
	return true
}

// raise lifts depth, one direction's rows per slot, to the counts.
func (kc *keyCounts) raise(depth []int32) {
	for _, s := range kc.slots {
		depth[s] = max(depth[s], kc.count[s])
	}
}

// diffCounts calls fn for every slot whose count differs between a and
// b, with a's count and b's.
func diffCounts(a, b *keyCounts, fn func(s int, ac, bc int32)) {
	for _, s := range a.slots {
		if a.count[s] != b.count[s] {
			fn(int(s), a.count[s], b.count[s])
		}
	}
	for _, s := range b.slots {
		if a.count[s] == 0 {
			fn(int(s), 0, b.count[s])
		}
	}
}

// rowsFit reports whether both directions' rows together number at most
// twice the n nodes: the budget that keeps them within the adjacency
// rows.
func rowsFit(dOut, dIn []int32, n int) bool {
	total := 0
	for s := range dOut {
		total += int(dOut[s]) + int(dIn[s])
	}
	return total <= 2*n
}

// slotOf returns the slot of key (nl, el), or -1 when no target node can
// have the key.
func (nr *nlfRows) slotOf(nl, el graph.Label) int {
	i := int64(nl) - nr.labMin
	j := int64(el) - nr.elMin
	if i < 0 || i >= int64(nr.labSpan) || j < 0 || j >= int64(nr.elSpan) {
		return -1
	}
	return int(i)*nr.elSpan + int(j)
}

// slot returns the slot of a packed NLF key (see nlfKey).
func (nr *nlfRows) slot(key uint64) int {
	return nr.slotOf(graph.Label(int32(uint32(key>>32))), graph.Label(int32(uint32(key))))
}

// key is slot's NLF key.
func (nr *nlfRows) key(slot int) uint64 {
	return nlfKey(graph.Label(nr.labMin+int64(slot/nr.elSpan)), graph.Label(nr.elMin+int64(slot%nr.elSpan)))
}

// relayout returns t's rows laid out for new depths, sharing every row
// both layouts have; the rows past t's depth are new and empty rows of n
// bits, and fresh marks them.
func (t *thresholdRows) relayout(depth []int32, n int) (nt *thresholdRows, fresh []bool) {
	total, grown := 0, 0
	for s, d := range depth {
		total += int(d)
		grown += int(max(d-t.depth[s], 0))
	}
	nt = &thresholdRows{first: make([]int32, len(depth)), depth: depth, rows: make([]*bitset.Set, total)}
	fresh = make([]bool, total)
	batch := bitset.NewBatch(grown, n)
	at := int32(0)
	for s, d := range depth {
		nt.first[s] = at
		kept := min(d, t.depth[s])
		copy(nt.rows[at:at+kept], t.rows[t.first[s]:])
		for c := kept; c < d; c++ {
			nt.rows[at+c] = &batch[0]
			batch = batch[1:]
			fresh[at+c] = true
		}
		at += d
	}
	return nt, fresh
}

// move shifts node v's bits in slot s from count oc to count nc: it
// sets v in the rows between them when nc is larger and clears it
// otherwise, within t's depth. A row that owned does not mark is copied
// before its first change, and marked.
func (t *thresholdRows) move(s int, v int32, oc, nc int32, owned []bool) {
	for c := min(oc, nc); c < min(max(oc, nc), t.depth[s]); c++ {
		i := t.first[s] + c
		if !owned[i] {
			t.rows[i], owned[i] = t.rows[i].Clone(), true
		}
		if nc > oc {
			t.rows[i].Set(int(v))
		} else {
			t.rows[i].Clear(int(v))
		}
	}
}

// row returns the nodes with at least c distinct neighbors of slot's
// key, or nil when none has that many.
func (t *thresholdRows) row(slot int, c int32) *bitset.Set {
	if slot < 0 || c > t.depth[slot] {
		return nil
	}
	return t.rows[t.first[slot]+c-1]
}

// filter intersects s with the rows a pattern signature needs in this
// direction: (k, count) per key, or (k, 1) under homomorphism.
func (t *thresholdRows) filter(nr *nlfRows, s *bitset.Set, p nlfSig, hom bool) {
	for i, k := range p.keys {
		c := p.counts[i]
		if hom {
			c = 1
		}
		r := t.row(nr.slot(k), c)
		if r == nil {
			s.ClearAll()
			return
		}
		s.And(r)
	}
}

// applyUpdates carries nr forward from oldG to newG, the way
// graph.BitGraph.Rebuild carries the adjacency rows: only the touched
// vertices are counted again, in both graphs, and their bits move, each
// changed row copied first, because the old index may still be serving
// queries. An in row and an out row the update leaves equal are one row
// again. It returns nil when the rows must be counted afresh: a touched
// key lies outside the key table, the rows outgrow the budget, or, on a
// target of at least rebatchMinNodes, the updates since the count have
// touched half the vertices (see rebatch).
func (nr *nlfRows) applyUpdates(oldG, newG *graph.Graph, touched []int32) *nlfRows {
	n := newG.NumNodes()
	nn := *nr
	nn.churn += len(touched)
	if rebatch(n, nn.churn) {
		return nil
	}
	a, b := nr.newCounts(), nr.newCounts()
	dOut, dIn := slices.Clone(nr.out.depth), slices.Clone(nr.in.depth)
	for _, v := range touched {
		if !b.load(nr, newG, v, true) {
			return nil
		}
		b.raise(dOut)
		if !b.load(nr, newG, v, false) {
			return nil
		}
		b.raise(dIn)
	}
	if !rowsFit(dOut, dIn, n) {
		// Past the budget before the drops are known: count afresh.
		return nil
	}
	// shift moves the touched vertices' bits in one direction's rows,
	// laid out for the raised depths, and returns the slots whose top
	// row may have emptied; changed collects the slots it touched.
	var changed []int
	shift := func(t *thresholdRows, owned []bool, out bool) (shrunk []int) {
		for _, v := range touched {
			a.load(nr, oldG, v, out)
			b.load(nr, newG, v, out)
			diffCounts(a, b, func(s int, oc, nc int32) {
				t.move(s, v, oc, nc, owned)
				changed = append(changed, s)
				if oc == t.depth[s] && nc < oc {
					shrunk = append(shrunk, s)
				}
			})
		}
		return shrunk
	}
	out, outOwned := nr.out.relayout(dOut, n)
	in, inOwned := nr.in.relayout(dIn, n)
	shrunkOut, shrunkIn := shift(out, outOwned, true), shift(in, inOwned, false)
	// Share each changed pair of rows that came out equal, keeping the
	// one this update did not copy.
	for _, s := range changed {
		for c := int32(0); c < min(out.depth[s], in.depth[s]); c++ {
			i, j := out.first[s]+c, in.first[s]+c
			if out.rows[i] == in.rows[j] || !out.rows[i].Equal(in.rows[j]) {
				continue
			}
			if outOwned[i] && !inOwned[j] {
				out.rows[i] = in.rows[j]
			} else {
				in.rows[j] = out.rows[i]
			}
		}
	}
	nn.out, nn.in = out.trim(shrunkOut, n), in.trim(shrunkIn, n)
	return &nn
}

// trim drops the top rows that emptied at the shrunk slots.
func (t *thresholdRows) trim(shrunk []int, n int) *thresholdRows {
	if len(shrunk) == 0 {
		return t
	}
	depth := slices.Clone(t.depth)
	for _, s := range shrunk {
		for depth[s] > 0 && t.rows[t.first[s]+depth[s]-1].Empty() {
			depth[s]--
		}
	}
	t, _ = t.relayout(depth, n)
	return t
}

// nlfRowsEqual compares two indexes' threshold rows key by key; their
// slot layouts may differ, since an updated index keeps the label
// ranges it was built with.
func nlfRowsEqual(a, b *nlfRows) (bool, string) {
	if (a == nil) != (b == nil) {
		return false, "threshold rows built on one side only"
	}
	if a == nil {
		return true, ""
	}
	for _, dir := range []struct {
		name   string
		ta, tb *thresholdRows
	}{{"out", a.out, b.out}, {"in", a.in, b.in}} {
		if len(dir.ta.rows) != len(dir.tb.rows) {
			return false, fmt.Sprintf("%d vs %d %s threshold rows", len(dir.ta.rows), len(dir.tb.rows), dir.name)
		}
		for s, d := range dir.ta.depth {
			if d == 0 {
				continue
			}
			k := a.key(s)
			sb := b.slot(k)
			if sb < 0 || dir.tb.depth[sb] != d {
				return false, fmt.Sprintf("%s key %#x has %d threshold rows on one side only", dir.name, k, d)
			}
			for c := int32(1); c <= d; c++ {
				if !dir.ta.row(s, c).Equal(dir.tb.row(sb, c)) {
					return false, fmt.Sprintf("%s key %#x threshold row %d differs", dir.name, k, c)
				}
			}
		}
	}
	return true, ""
}
