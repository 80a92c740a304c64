package domain

import "parsge/internal/graph"

// Compact NLF signatures. The exact representation in nlfSig stores one
// (key, count) pair per distinct (neighbor label, edge label) incidence
// of every node and direction — O(edges) memory per direction, which on
// million-edge targets dominates the Index. The compact representation
// bounds per-node memory at a constant: keys are folded into
// compactBuckets saturating counters per node and direction, and the
// domination test compares bucket sums instead of per-key counts.
//
// Soundness: for a valid candidate, t.count(k) ≥ p.count(k) holds per
// key, so summing over the keys of any bucket keeps the inequality
// (target-only keys in the bucket only raise the target side). The
// bucketed test therefore never prunes a valid candidate; it may keep
// candidates the exact test would drop (keys sharing a bucket mask each
// other), which only costs search states, never matches.
//
// Exactness fallback: when the target's distinct key alphabet fits in
// the bucket array, keys get a perfect (injective) bucket assignment and
// the compact test is exactly the exact test — small label alphabets pay
// no pruning loss for the memory bound. A pattern key outside the
// target's alphabet can then be rejected outright (no target node
// anywhere offers it).

// compactBuckets is the per-direction bucket count (a power of two, so
// hashBucket's top-bits shift covers exactly [0, compactBuckets)).
// 8 × uint16 = 16 bytes per node per direction, independent of the
// edge count.
const (
	compactBucketBits = 3
	compactBuckets    = 1 << compactBucketBits
)

// compactAutoEdges is the edge count above which NLFAuto switches the
// Index to compact signatures (the "million-edge target" regime).
const compactAutoEdges = 1 << 20

// compactSig is one node's bucketed signature in one direction.
type compactSig [compactBuckets]uint16

// NLFMode selects the Index's NLF signature representation.
type NLFMode int32

const (
	// NLFAuto (the zero value) picks exact signatures below
	// compactAutoEdges target edges and compact ones above.
	NLFAuto NLFMode = iota
	// NLFExact always stores exact per-key signatures.
	NLFExact
	// NLFCompact always stores bucketed signatures.
	NLFCompact
)

// String names the mode for logs and golden tables.
func (m NLFMode) String() string {
	switch m {
	case NLFAuto:
		return "auto"
	case NLFExact:
		return "exact"
	case NLFCompact:
		return "compact"
	default:
		return "NLFMode(?)"
	}
}

// hashBucket folds an nlfKey into a bucket index (Fibonacci hashing —
// the keys are label pairs, typically tiny and sequential, so plain
// masking would collide systematically).
func hashBucket(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - compactBucketBits))
}

// bucketOf maps a key through the index's perfect assignment when one
// exists, else hashes. ok is false only under a perfect assignment for
// keys the target graph never exhibits.
func (ix *Index) bucketOf(key uint64) (int, bool) {
	if ix.keyBucket != nil {
		b, ok := ix.keyBucket[key]
		return int(b), ok
	}
	return hashBucket(key), true
}

// satAdd adds n to a saturating uint16 counter.
func satAdd(c uint16, n int32) uint16 {
	s := int64(c) + int64(n)
	if s > 0xFFFF {
		return 0xFFFF
	}
	return uint16(s)
}

// foldCompact folds an exact key buffer (as produced by appendNLFKeys,
// unsorted is fine) into a bucketed signature via the index's mapping.
func (ix *Index) foldCompact(keys []uint64) compactSig {
	var sig compactSig
	for _, k := range keys {
		if b, ok := ix.bucketOf(k); ok {
			sig[b] = satAdd(sig[b], 1)
		}
	}
	return sig
}

// compactDominates reports whether target buckets t cover pattern
// buckets p: per bucket at least the pattern's count (injective
// semantics) or mere presence (homomorphism — set containment).
func compactDominates(t, p compactSig, hom bool) bool {
	for b := 0; b < compactBuckets; b++ {
		if p[b] == 0 {
			continue
		}
		if t[b] == 0 || (!hom && t[b] < p[b]) {
			return false
		}
	}
	return true
}

// patternCompact is one pattern node's bucketed signature in one
// direction. impossible marks a pattern key outside the target's key
// alphabet under a perfect bucket assignment: no candidate anywhere can
// dominate it, so the node's domain is empty.
type patternCompact struct {
	sig        compactSig
	impossible bool
}

// buildPatternCompact folds one pattern adjacency row into a bucketed
// signature using the index's key mapping.
func (ix *Index) buildPatternCompact(buf []uint64) patternCompact {
	var pc patternCompact
	for _, k := range buf {
		b, ok := ix.bucketOf(k)
		if !ok {
			pc.impossible = true
			return pc
		}
		pc.sig[b] = satAdd(pc.sig[b], 1)
	}
	return pc
}

// buildCompactNLF fills the index's compact signature tables and the
// perfect key assignment when the target's key alphabet is small enough.
func (ix *Index) buildCompactNLF(gt *graph.Graph) {
	nt := gt.NumNodes()
	// First pass: collect the distinct key alphabet, giving up once it
	// outgrows the bucket array (the map stays O(compactBuckets)).
	alphabet := make(map[uint64]int8)
	small := true
	var buf []uint64
scan:
	for vt := int32(0); vt < int32(nt); vt++ {
		buf = appendNLFKeys(buf[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
		buf = appendNLFKeys(buf, gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
		for _, k := range buf {
			if _, ok := alphabet[k]; !ok {
				if len(alphabet) == compactBuckets {
					small = false
					break scan
				}
				alphabet[k] = int8(len(alphabet))
			}
		}
	}
	if small {
		ix.keyBucket = alphabet // injective: compact test is exact
	}
	ix.cout = make([]compactSig, nt)
	ix.cin = make([]compactSig, nt)
	for vt := int32(0); vt < int32(nt); vt++ {
		buf = appendNLFKeys(buf[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
		ix.cout[vt] = ix.foldCompact(buf)
		buf = appendNLFKeys(buf[:0], gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
		ix.cin[vt] = ix.foldCompact(buf)
	}
}

// CompactNLF reports whether the index stores bucketed NLF signatures.
func (ix *Index) CompactNLF() bool { return ix.cout != nil }

// NLFExactFallback reports whether a compact index's bucket assignment
// is perfect (small key alphabet), making the compact test exact.
func (ix *Index) NLFExactFallback() bool { return ix.keyBucket != nil }

// NLFMemoryBytes returns the payload bytes of the NLF signature storage
// (exact mode's key masks included) — the quantity the compact
// representation exists to bound. Slice and map headers are excluded;
// the figure is for comparing representations, not accounting heap
// pages.
func (ix *Index) NLFMemoryBytes() int {
	if ix.CompactNLF() {
		return (len(ix.cout) + len(ix.cin)) * compactBuckets * 2
	}
	total := (len(ix.outMask) + len(ix.inMask)) * 8
	for _, sigs := range [][]nlfSig{ix.out, ix.in} {
		for _, s := range sigs {
			total += len(s.keys)*8 + len(s.counts)*4
		}
	}
	return total
}
