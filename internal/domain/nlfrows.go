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
// They are built beside the BitGraph rows of an Index (see Index.Rows),
// for both directions or for neither: only while both directions' rows
// together number at most twice the target's node count, so they never
// outweigh the adjacency rows. Past that the unary filter keeps the
// per-candidate merge.

// nlfRows is an Index's threshold rows. A key (neighbor label nl, edge
// label el) owns slot (nl−labMin)·elSpan + (el−elMin) when both labels
// lie in the index's ranges; a key outside them occurs at no target
// node. Dense slots keep the build free of maps.
type nlfRows struct {
	labMin, elMin   int64
	labSpan, elSpan int
	out, in         *thresholdRows
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

// newNLFRows builds the threshold rows of index ix, or returns nil
// when its key table would exceed maxKeySlots or its rows the budget.
func newNLFRows(ix *Index) *nlfRows {
	labLo, labHi := int64(math.MaxInt64), int64(math.MinInt64)
	for l := range ix.byLabel {
		labLo, labHi = min(labLo, int64(l)), max(labHi, int64(l))
	}
	elLo, elHi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sig := range ix.out {
		for _, k := range sig.keys {
			el := int64(int32(uint32(k)))
			elLo, elHi = min(elLo, el), max(elHi, el)
		}
	}
	nr := &nlfRows{}
	if labLo <= labHi && elLo <= elHi {
		nr.labMin, nr.labSpan = labLo, int(labHi-labLo)+1
		nr.elMin, nr.elSpan = elLo, int(elHi-elLo)+1
	}
	// Each span is bounded first, so the product cannot overflow.
	if limit := maxKeySlots(ix.nt); max(nr.labSpan, nr.elSpan) > limit || nr.labSpan*nr.elSpan > limit {
		return nil
	}
	dOut, dIn := make([]int32, nr.labSpan*nr.elSpan), make([]int32, nr.labSpan*nr.elSpan)
	for v := range ix.out {
		nr.raise(dOut, ix.out[v])
		nr.raise(dIn, ix.in[v])
	}
	if !rowsFit(dOut, dIn, ix.nt) {
		return nil
	}
	nr.out = nr.build(ix.out, dOut, ix.nt)
	nr.in = nr.build(ix.in, dIn, ix.nt)
	return nr
}

// raise lifts depth, one direction's rows per slot, to sig's count of
// each slot's key.
func (nr *nlfRows) raise(depth []int32, sig nlfSig) {
	for i, k := range sig.keys {
		s := nr.slot(k)
		depth[s] = max(depth[s], sig.counts[i])
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

// slot returns key's slot, or -1 when no target node can have the key.
func (nr *nlfRows) slot(key uint64) int {
	i := int64(int32(uint32(key>>32))) - nr.labMin
	j := int64(int32(uint32(key))) - nr.elMin
	if i < 0 || i >= int64(nr.labSpan) || j < 0 || j >= int64(nr.elSpan) {
		return -1
	}
	return int(i)*nr.elSpan + int(j)
}

// key is slot's NLF key.
func (nr *nlfRows) key(slot int) uint64 {
	return nlfKey(graph.Label(nr.labMin+int64(slot/nr.elSpan)), graph.Label(nr.elMin+int64(slot%nr.elSpan)))
}

// build lays out one direction's rows for depth and sets each node's
// bits from its signature.
func (nr *nlfRows) build(sigs []nlfSig, depth []int32, n int) *thresholdRows {
	empty := &thresholdRows{first: make([]int32, len(depth)), depth: make([]int32, len(depth))}
	t, _ := empty.relayout(depth, n)
	for v, sig := range sigs {
		for i, k := range sig.keys {
			for _, r := range t.rows[t.first[nr.slot(k)]:][:sig.counts[i]] {
				r.Set(v)
			}
		}
	}
	return t
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

// applyUpdates carries the rows of ix forward to nix, the index of the
// updated graph, the way graph.BitGraph.Rebuild carries the adjacency
// rows: only the touched nodes' bits change, and a changed row is
// copied first, because ix may still be serving queries. Without rows,
// with a touched key outside the key table, or with rows grown past the
// budget, nix's are built afresh.
func (nr *nlfRows) applyUpdates(ix, nix *Index, touched []int32) *nlfRows {
	if nr == nil {
		return newNLFRows(nix)
	}
	for _, v := range touched {
		for _, sig := range [2]nlfSig{nix.out[v], nix.in[v]} {
			for _, k := range sig.keys {
				if nr.slot(k) < 0 {
					return newNLFRows(nix)
				}
			}
		}
	}
	dOut, dIn := slices.Clone(nr.out.depth), slices.Clone(nr.in.depth)
	for _, v := range touched {
		nr.raise(dOut, nix.out[v])
		nr.raise(dIn, nix.in[v])
	}
	if !rowsFit(dOut, dIn, ix.nt) {
		// Past the budget before the drops are known: count afresh.
		return newNLFRows(nix)
	}
	nn := *nr
	nn.out = nr.out.applyUpdates(&nn, dOut, ix.out, nix.out, touched, ix.nt)
	nn.in = nr.in.applyUpdates(&nn, dIn, ix.in, nix.in, touched, ix.nt)
	return &nn
}

// applyUpdates lays t out for depth, t's depths raised to the touched
// nodes' new counts, and moves each touched node's bits from its old
// counts to its new ones, dropping the top rows that emptied.
func (t *thresholdRows) applyUpdates(nr *nlfRows, depth []int32, old, cur []nlfSig, touched []int32, n int) *thresholdRows {
	nt, owned := t.relayout(depth, n)
	var shrunk []int
	for _, v := range touched {
		diffSigs(old[v], cur[v], func(k uint64, oc, nc int32) {
			s := nr.slot(k)
			for c := min(oc, nc); c < max(oc, nc); c++ {
				i := nt.first[s] + c
				if !owned[i] {
					nt.rows[i], owned[i] = nt.rows[i].Clone(), true
				}
				if nc > oc {
					nt.rows[i].Set(int(v))
				} else {
					nt.rows[i].Clear(int(v))
				}
			}
			if oc == nt.depth[s] && nc < oc {
				shrunk = append(shrunk, s)
			}
		})
	}
	if len(shrunk) == 0 {
		return nt
	}
	depth = slices.Clone(nt.depth)
	for _, s := range shrunk {
		for depth[s] > 0 && nt.rows[nt.first[s]+depth[s]-1].Empty() {
			depth[s]--
		}
	}
	nt, _ = nt.relayout(depth, n)
	return nt
}

// diffSigs calls fn for every key of a or b whose count differs, with
// the old count oc (0: absent from a) and the new count nc.
func diffSigs(a, b nlfSig, fn func(k uint64, oc, nc int32)) {
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		switch {
		case j == len(b.keys) || (i < len(a.keys) && a.keys[i] < b.keys[j]):
			fn(a.keys[i], a.counts[i], 0)
			i++
		case i == len(a.keys) || b.keys[j] < a.keys[i]:
			fn(b.keys[j], 0, b.counts[j])
			j++
		default:
			if a.counts[i] != b.counts[j] {
				fn(a.keys[i], a.counts[i], b.counts[j])
			}
			i++
			j++
		}
	}
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
