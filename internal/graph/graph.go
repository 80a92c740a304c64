// Package graph provides the directed, labeled graph representation shared
// by every engine in this repository.
//
// Graphs are immutable after construction and stored in compressed sparse
// row (CSR) form with both out- and in-adjacency, each sorted by neighbor
// id. Sorted adjacency makes edge-existence checks O(log deg) and lets the
// search engines iterate neighborhoods as contiguous slices — the paper
// notes that "during search, we must iterate over relatively short
// adjacency lists, implemented as arrays" (Kimmig et al. §5.2.4), and CSR
// is the Go equivalent of that layout.
//
// Both node and edge labels are small integers (Label). Applications map
// their string labels to ids via graphio.LabelTable or by any scheme of
// their own; the engines only ever compare labels for equality (§2.1,
// "we assume strict equality for labels").
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Label identifies a node or edge label. Labels are compared for equality
// only. NoLabel is the zero label, used by unlabeled graphs throughout.
type Label int32

// NoLabel is the label of nodes/edges in unlabeled graphs.
const NoLabel Label = 0

// Semantics selects what "match" means for every engine in this
// repository. All semantics preserve node labels (equal labels) and map
// every pattern edge onto a label-compatible target edge of the same
// direction; they differ in injectivity and in how pattern *non*-edges
// constrain the target.
//
// The zero value is SemanticsUnset — "no semantics chosen" — so that an
// explicitly chosen SubgraphIso is distinguishable from an Options
// struct that simply left the field alone. Session defaults
// (parsge.TargetOptions.DefaultSemantics) substitute only for unset
// queries; the engines themselves normalize unset to SubgraphIso (the
// paper's semantics) via Norm, so zero-valued engine options keep their
// historical meaning.
type Semantics int32

const (
	// SemanticsUnset is the zero value: no semantics was chosen. The
	// public API resolves it against session defaults; every engine
	// normalizes it to SubgraphIso.
	SemanticsUnset Semantics = iota
	// SubgraphIso is non-induced subgraph isomorphism (subgraph
	// monomorphism), the semantics of Kimmig et al. §2.1 and the
	// library default: the mapping is injective and target edges not
	// present in the pattern are ignored.
	SubgraphIso
	// InducedIso is induced subgraph isomorphism: injective, and every
	// ordered pattern non-edge (self-loops included) must map onto a
	// target non-edge — the target may not add edges between images,
	// regardless of edge labels.
	InducedIso
	// Homomorphism drops injectivity: distinct pattern nodes may share
	// an image, so several pattern edges may map onto one target edge.
	// Degree-based pruning is unsound under this semantics and every
	// engine disables it.
	Homomorphism
)

// Norm maps SemanticsUnset to the library default, SubgraphIso, and
// returns every other value unchanged. Engines call it once at their
// entry points so the zero value of their option structs keeps meaning
// the paper's semantics.
func (s Semantics) Norm() Semantics {
	if s == SemanticsUnset {
		return SubgraphIso
	}
	return s
}

// String returns the conventional name of the semantics.
func (s Semantics) String() string {
	switch s {
	case SemanticsUnset:
		return "unset"
	case SubgraphIso:
		return "subgraph-iso"
	case InducedIso:
		return "induced-iso"
	case Homomorphism:
		return "homomorphism"
	default:
		return fmt.Sprintf("Semantics(%d)", int32(s))
	}
}

// Injective reports whether distinct pattern nodes must map to distinct
// target nodes. Engines gate their used-set checks — and every
// consequence of injectivity such as forward checking — on this.
// SemanticsUnset behaves like its normalization, SubgraphIso.
func (s Semantics) Injective() bool { return s != Homomorphism }

// Induced reports whether pattern non-edges must map to target non-edges.
func (s Semantics) Induced() bool { return s == InducedIso }

// DegreePruning reports whether "image degree ≥ pattern degree" is a
// sound filter. Under homomorphism several pattern edges may collapse
// onto one target edge, so it is not.
func (s Semantics) DegreePruning() bool { return s != Homomorphism }

// Valid reports whether s is one of the defined semantics constants
// (SemanticsUnset included — it normalizes to SubgraphIso).
func (s Semantics) Valid() bool {
	return s == SemanticsUnset || s == SubgraphIso || s == InducedIso || s == Homomorphism
}

// Graph is an immutable directed labeled graph in CSR form. Construct one
// with a Builder. The zero value is an empty graph.
type Graph struct {
	nodeLabels []Label

	outStart []int32 // len n+1; out edges of v are outAdj[outStart[v]:outStart[v+1]]
	outAdj   []int32
	outLab   []Label

	inStart []int32 // len n+1; in edges of v are inAdj[inStart[v]:inStart[v+1]]
	inAdj   []int32
	inLab   []Label

	numEdges int
}

// NumNodes returns the number of nodes. Nodes are identified by the dense
// range [0, NumNodes()).
func (g *Graph) NumNodes() int { return len(g.nodeLabels) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NodeLabel returns the label of node v.
func (g *Graph) NodeLabel(v int32) Label { return g.nodeLabels[v] }

// OutDegree returns deg+(v), the number of edges leaving v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InDegree returns deg-(v), the number of edges entering v.
func (g *Graph) InDegree(v int32) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// Degree returns the total degree deg+(v) + deg-(v). For a graph built
// with undirected edges (both directions present) this counts each
// undirected edge twice, consistently for pattern and target.
func (g *Graph) Degree(v int32) int { return g.OutDegree(v) + g.InDegree(v) }

// OutNeighbors returns the out-neighbors of v sorted ascending. The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v int32) []int32 {
	return g.outAdj[g.outStart[v]:g.outStart[v+1]]
}

// OutEdgeLabels returns labels parallel to OutNeighbors(v).
func (g *Graph) OutEdgeLabels(v int32) []Label {
	return g.outLab[g.outStart[v]:g.outStart[v+1]]
}

// InNeighbors returns the in-neighbors of v sorted ascending. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.inAdj[g.inStart[v]:g.inStart[v+1]]
}

// InEdgeLabels returns labels parallel to InNeighbors(v).
func (g *Graph) InEdgeLabels(v int32) []Label {
	return g.inLab[g.inStart[v]:g.inStart[v+1]]
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int32) bool {
	_, ok := g.EdgeLabel(u, v)
	return ok
}

// EdgeLabel returns the label of edge (u, v) and whether the edge exists.
// If parallel edges were added, the label of one of them is returned.
func (g *Graph) EdgeLabel(u, v int32) (Label, bool) {
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return g.OutEdgeLabels(u)[i], true
	}
	return NoLabel, false
}

// HasEdgeLabeled reports whether a directed edge (u, v) with exactly the
// given label exists. Unlike EdgeLabel it is correct in the presence of
// parallel edges carrying different labels: it scans the whole run of
// (u, v) entries in the sorted adjacency row.
func (g *Graph) HasEdgeLabeled(u, v int32, l Label) bool {
	adj := g.OutNeighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	labs := g.OutEdgeLabels(u)
	for ; i < len(adj) && adj[i] == v; i++ {
		if labs[i] == l {
			return true
		}
	}
	return false
}

// MaxNodeLabel returns the largest node label present, or NoLabel for an
// empty graph. Useful for sizing label-indexed tables.
func (g *Graph) MaxNodeLabel() Label {
	max := NoLabel
	for _, l := range g.nodeLabels {
		if l > max {
			max = l
		}
	}
	return max
}

// DegreeStats returns the mean and population standard deviation of the
// total degree, matching the µ and σ columns of the paper's Table 1.
func (g *Graph) DegreeStats() (mean, stddev float64) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for v := int32(0); v < int32(n); v++ {
		sum += float64(g.Degree(v))
	}
	mean = sum / float64(n)
	var sq float64
	for v := int32(0); v < int32(n); v++ {
		d := float64(g.Degree(v)) - mean
		sq += d * d
	}
	return mean, sqrt(sq / float64(n))
}

// sqrt is a tiny Newton implementation so the package stays free of math
// imports in its hot path; precision is ample for reporting statistics.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z -= (z*z - x) / (2 * z)
	}
	return z
}

// Edge is an explicit directed edge, used by Builder and by graph I/O.
type Edge struct {
	From, To int32
	Label    Label
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	labels []Label
	edges  []Edge
}

// NewBuilder returns a Builder pre-sized for n nodes and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		labels: make([]Label, 0, n),
		edges:  make([]Edge, 0, m),
	}
}

// AddNode appends a node with the given label and returns its id.
func (b *Builder) AddNode(l Label) int32 {
	b.labels = append(b.labels, l)
	return int32(len(b.labels) - 1)
}

// AddNodes appends k unlabeled nodes and returns the id of the first.
func (b *Builder) AddNodes(k int) int32 {
	first := int32(len(b.labels))
	for i := 0; i < k; i++ {
		b.labels = append(b.labels, NoLabel)
	}
	return first
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumEdges returns the number of directed edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge adds the directed edge (u, v) with the given label. Adding an
// edge with an endpoint that has not been added yet causes Build to fail.
func (b *Builder) AddEdge(u, v int32, l Label) {
	b.edges = append(b.edges, Edge{From: u, To: v, Label: l})
}

// AddEdgeBoth adds both (u, v) and (v, u) with the same label, the usual
// encoding of an undirected edge in this code base.
func (b *Builder) AddEdgeBoth(u, v int32, l Label) {
	b.AddEdge(u, v, l)
	b.AddEdge(v, u, l)
}

// HasEdgePending reports whether edge (u,v) was already added. It is a
// linear scan intended for generators that avoid duplicate edges; the
// immutable Graph offers O(log deg) HasEdge instead.
func (b *Builder) HasEdgePending(u, v int32) bool {
	for _, e := range b.edges {
		if e.From == u && e.To == v {
			return true
		}
	}
	return false
}

// Build validates the accumulated nodes and edges and returns the
// immutable CSR graph. The Builder may be reused afterwards; the returned
// graph does not alias its storage.
func (b *Builder) Build() (*Graph, error) {
	n := int32(len(b.labels))
	for _, e := range b.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references missing node (n=%d)", e.From, e.To, n)
		}
	}

	g := &Graph{
		nodeLabels: append([]Label(nil), b.labels...),
		numEdges:   len(b.edges),
	}
	g.outStart, g.outAdj, g.outLab = buildCSR(b.edges, n, false)
	g.inStart, g.inAdj, g.inLab = buildCSR(b.edges, n, true)
	return g, nil
}

// MustBuild is Build for statically-known-good graphs (tests, examples).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// buildCSR produces one direction of adjacency via counting sort over the
// source endpoint, then sorts each row by neighbor id.
func buildCSR(edges []Edge, n int32, reverse bool) ([]int32, []int32, []Label) {
	start := make([]int32, n+1)
	src := func(e Edge) int32 {
		if reverse {
			return e.To
		}
		return e.From
	}
	dst := func(e Edge) int32 {
		if reverse {
			return e.From
		}
		return e.To
	}
	for _, e := range edges {
		start[src(e)+1]++
	}
	for v := int32(0); v < n; v++ {
		start[v+1] += start[v]
	}
	adj := make([]int32, len(edges))
	lab := make([]Label, len(edges))
	next := make([]int32, n)
	copy(next, start[:n])
	for _, e := range edges {
		s := src(e)
		adj[next[s]] = dst(e)
		lab[next[s]] = e.Label
		next[s]++
	}
	rs := &rowSorter{} // one sorter for every row, not one allocation per row
	for v := int32(0); v < n; v++ {
		lo, hi := start[v], start[v+1]
		rs.adj, rs.lab = adj[lo:hi], lab[lo:hi]
		sort.Sort(rs)
	}
	return start, adj, lab
}

type rowSorter struct {
	adj []int32
	lab []Label
}

func (r *rowSorter) Len() int           { return len(r.adj) }
func (r *rowSorter) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowSorter) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.lab[i], r.lab[j] = r.lab[j], r.lab[i]
}

// Edges returns all directed edges of g in out-CSR order. It allocates;
// intended for I/O and tests, not search.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		adj := g.OutNeighbors(v)
		labs := g.OutEdgeLabels(v)
		for i, w := range adj {
			out = append(out, Edge{From: v, To: w, Label: labs[i]})
		}
	}
	return out
}

// Simplify returns a graph with duplicate edges — equal (From, To,
// Label) triples — removed, keeping the first copy of each; nodes and
// labels are unchanged. If g has no duplicates it is returned as-is,
// without allocating.
//
// The search engines call this on pattern graphs: under the non-induced
// edge-set semantics of subgraph enumeration (§2.1 of the paper), a
// duplicated pattern edge imposes no additional constraint on the
// target, but counting it in deg⁻/deg⁺ would make degree-based pruning
// unsound (a valid image could be rejected for having "too few" edges).
func (g *Graph) Simplify() *Graph {
	n := int32(g.NumNodes())
	dup := false
	for v := int32(0); v < n && !dup; v++ {
		adj, labs := g.OutNeighbors(v), g.OutEdgeLabels(v)
		for i := range adj {
			if repeatsArc(adj, labs, i) {
				dup = true
				break
			}
		}
	}
	if !dup {
		return g
	}
	b := NewBuilder(int(n), g.numEdges)
	for v := int32(0); v < n; v++ {
		b.AddNode(g.NodeLabel(v))
	}
	for v := int32(0); v < n; v++ {
		adj, labs := g.OutNeighbors(v), g.OutEdgeLabels(v)
		for i, w := range adj {
			if !repeatsArc(adj, labs, i) {
				b.AddEdge(v, w, labs[i])
			}
		}
	}
	// The node set and endpoints are unchanged, so Build cannot fail.
	return b.MustBuild()
}

// repeatsArc reports whether arc i of a CSR row repeats an earlier arc
// of the row: the row is sorted by neighbor, so an equal arc lies in
// the run of arcs to the same neighbor just before it.
func repeatsArc(adj []int32, labs []Label, i int) bool {
	for j := i - 1; j >= 0 && adj[j] == adj[i]; j-- {
		if labs[j] == labs[i] {
			return true
		}
	}
	return false
}

// Symmetric reports whether every arc (u, v, l) has a matching reverse
// arc (v, u, l), with equal multiplicities — the property that lets the
// graph be serialized in graphio's compact %undirected form. Self-loops
// are their own reverse. It holds exactly when every vertex is
// SymmetricAt.
func (g *Graph) Symmetric() bool {
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if !g.SymmetricAt(v) {
			return false
		}
	}
	return true
}

// SymmetricAt reports whether v's out-arcs and in-arcs are equal as
// multisets of (neighbor, edge label): then every arc at v has its
// reverse, and v's adjacency reads the same in both directions. Both
// CSR rows are sorted by neighbor, so equal neighbor sequences align
// their runs of parallel arcs, and only the label order inside a run
// may differ: the labels are compared run by run, as small multisets.
func (g *Graph) SymmetricAt(v int32) bool {
	out := g.OutNeighbors(v)
	if !slices.Equal(out, g.InNeighbors(v)) {
		return false
	}
	outL, inL := g.OutEdgeLabels(v), g.InEdgeLabels(v)
	if slices.Equal(outL, inL) {
		return true
	}
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j] == out[i] {
			j++
		}
		if !sameLabels(outL[i:j], inL[i:j]) {
			return false
		}
		i = j
	}
	return true
}

// sameLabels reports whether two equally long label runs are equal as
// multisets. Runs are the parallel arcs to one neighbor, so they are
// short; each distinct label is counted on both sides.
func sameLabels(a, b []Label) bool {
	if slices.Equal(a, b) {
		return true
	}
	for i, l := range a {
		if slices.Index(a, l) < i {
			continue // counted at its first occurrence
		}
		na, nb := 0, 0
		for k := range a {
			if a[k] == l {
				na++
			}
			if b[k] == l {
				nb++
			}
		}
		if na != nb {
			return false
		}
	}
	return true
}

// Relabel returns the graph with node ids permuted by perm (node v of g
// becomes node perm[v]); node labels, edges and edge labels follow their
// nodes. perm must be a permutation of [0, NumNodes()). Enumeration
// counts are invariant under Relabel for every matching semantics, which
// the property tests exploit to catch ordering-dependent bugs.
func (g *Graph) Relabel(perm []int32) (*Graph, error) {
	n := g.NumNodes()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation has %d entries for %d nodes", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: not a permutation of [0,%d)", n)
		}
		seen[p] = true
	}
	b := NewBuilder(n, g.numEdges)
	labels := make([]Label, n)
	for v := int32(0); v < int32(n); v++ {
		labels[perm[v]] = g.NodeLabel(v)
	}
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.From], perm[e.To], e.Label)
	}
	// Permuting endpoints of a valid graph cannot fail validation.
	return b.MustBuild(), nil
}

// ConnectedUndirected reports whether g is connected when edge direction
// is ignored. Pattern extraction uses this to guarantee usable patterns.
func (g *Graph) ConnectedUndirected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.OutNeighbors(v) {
			if !seen[w] {
				seen[w] = true
				visited++
				stack = append(stack, w)
			}
		}
		for _, w := range g.InNeighbors(v) {
			if !seen[w] {
				seen[w] = true
				visited++
				stack = append(stack, w)
			}
		}
	}
	return visited == n
}

// String summarizes the graph for logs and test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}
