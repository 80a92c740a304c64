package parsge

import "parsge/internal/graph"

// CanonicalPattern returns a relabeling-invariant encoding of g and the
// permutation that produced it (node v of g becomes node perm[v] of the
// canonical numbering). Two graphs have equal encodings if and only if
// they are isomorphic — the same labeled structure under some node
// renumbering — so the encoding (or a hash of it) identifies a pattern
// regardless of how a client happened to number its nodes. This is the
// identity the service layer's result cache is keyed by: isomorphic
// patterns submitted by different clients share one cache entry, and
// cached mappings are stored in canonical numbering and translated back
// through perm.
//
// The bytes are an opaque comparison value, not a serialization format.
// Cost is near-linear on label-diverse graphs and exponential in the
// worst case (highly symmetric unlabeled graphs); intended for pattern
// graphs — a handful of nodes — not for million-node targets.
func CanonicalPattern(g *Graph) (encoding []byte, perm []int32) {
	return graph.CanonicalForm(g)
}

// CanonicalHash returns a 64-bit hash of g's canonical encoding: equal
// for isomorphic graphs, distinct for non-isomorphic ones up to hash
// collisions. Callers for whom a collision would be a correctness bug —
// the service cache — compare the full encodings, using the hash only to
// shard.
func CanonicalHash(g *Graph) uint64 {
	return graph.CanonicalHash(g)
}
