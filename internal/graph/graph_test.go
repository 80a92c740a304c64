package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// triangle builds the labeled directed triangle 0→1→2→0 used by several
// tests.
func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3, 3)
	b.AddNode(1)
	b.AddNode(2)
	b.AddNode(3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 11)
	b.AddEdge(2, 0, 12)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := (&Builder{}).MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	mean, sd := g.DegreeStats()
	if mean != 0 || sd != 0 {
		t.Fatalf("degree stats of empty graph = %f, %f", mean, sd)
	}
	if !g.ConnectedUndirected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestBasicAccessors(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(0) != 1 || g.NodeLabel(2) != 3 {
		t.Error("node labels wrong")
	}
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 || g.Degree(0) != 2 {
		t.Error("degrees wrong")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge existence wrong")
	}
	if l, ok := g.EdgeLabel(1, 2); !ok || l != 11 {
		t.Errorf("EdgeLabel(1,2) = %d, %v", l, ok)
	}
	if _, ok := g.EdgeLabel(2, 1); ok {
		t.Error("EdgeLabel found nonexistent edge")
	}
}

func TestBuildRejectsBadEndpoint(t *testing.T) {
	b := NewBuilder(1, 1)
	b.AddNode(0)
	b.AddEdge(0, 5, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range endpoint")
	}
	b2 := NewBuilder(1, 1)
	b2.AddNode(0)
	b2.AddEdge(-1, 0, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted negative endpoint")
	}
}

func TestAddNodesAndEdgeBoth(t *testing.T) {
	b := &Builder{}
	first := b.AddNodes(4)
	if first != 0 || b.NumNodes() != 4 {
		t.Fatalf("AddNodes first=%d n=%d", first, b.NumNodes())
	}
	b.AddEdgeBoth(0, 3, 7)
	g := b.MustBuild()
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("AddEdgeBoth missing a direction")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestHasEdgePending(t *testing.T) {
	b := &Builder{}
	b.AddNodes(3)
	b.AddEdge(0, 1, 0)
	if !b.HasEdgePending(0, 1) || b.HasEdgePending(1, 0) {
		t.Fatal("HasEdgePending wrong")
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := &Builder{}
	b.AddNodes(5)
	// Insert edges in scrambled order.
	for _, w := range []int32{4, 1, 3, 2} {
		b.AddEdge(0, w, Label(w))
	}
	g := b.MustBuild()
	adj := g.OutNeighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Fatalf("out adjacency not sorted: %v", adj)
	}
	labs := g.OutEdgeLabels(0)
	for i, w := range adj {
		if labs[i] != Label(w) {
			t.Fatalf("edge label misaligned after sort: adj=%v labs=%v", adj, labs)
		}
	}
}

func TestInOutConsistency(t *testing.T) {
	g := triangle(t)
	in1 := g.InNeighbors(1)
	if len(in1) != 1 || in1[0] != 0 {
		t.Fatalf("InNeighbors(1) = %v", in1)
	}
	if l := g.InEdgeLabels(1)[0]; l != 10 {
		t.Fatalf("in edge label = %d", l)
	}
}

func TestDegreeStats(t *testing.T) {
	g := triangle(t)
	mean, sd := g.DegreeStats()
	if math.Abs(mean-2) > 1e-9 {
		t.Errorf("mean degree = %f, want 2", mean)
	}
	if math.Abs(sd) > 1e-9 {
		t.Errorf("stddev = %f, want 0", sd)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle(t)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges returned %d edges", len(es))
	}
	b := NewBuilder(3, 3)
	for v := 0; v < 3; v++ {
		b.AddNode(g.NodeLabel(int32(v)))
	}
	for _, e := range es {
		b.AddEdge(e.From, e.To, e.Label)
	}
	g2 := b.MustBuild()
	for u := int32(0); u < 3; u++ {
		for v := int32(0); v < 3; v++ {
			l1, ok1 := g.EdgeLabel(u, v)
			l2, ok2 := g2.EdgeLabel(u, v)
			if ok1 != ok2 || l1 != l2 {
				t.Fatalf("round trip differs at (%d,%d)", u, v)
			}
		}
	}
}

func TestConnectedUndirected(t *testing.T) {
	b := &Builder{}
	b.AddNodes(4)
	b.AddEdge(0, 1, 0)
	b.AddEdge(2, 1, 0) // reachable only via in-edges from 1's perspective
	g := b.MustBuild()
	if g.ConnectedUndirected() {
		t.Fatal("graph with isolated node 3 reported connected")
	}
	b.AddEdge(3, 0, 0)
	if !b.MustBuild().ConnectedUndirected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestString(t *testing.T) {
	if s := triangle(t).String(); s != "Graph(n=3, m=3)" {
		t.Fatalf("String = %q", s)
	}
}

// randomGraph builds a random directed graph for property tests.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(Label(rng.Intn(4)))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), Label(rng.Intn(3)))
	}
	return b.MustBuild()
}

func TestQuickInOutAreTransposes(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 120)
		// every out edge (u,v) appears as in edge at v, with same label
		for u := int32(0); u < int32(g.NumNodes()); u++ {
			adj := g.OutNeighbors(u)
			labs := g.OutEdgeLabels(u)
			for i, v := range adj {
				found := false
				in := g.InNeighbors(v)
				inl := g.InEdgeLabels(v)
				for j, w := range in {
					if w == u && inl[j] == labs[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSumsEqualEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 80)
		outSum, inSum := 0, 0
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			outSum += g.OutDegree(v)
			inSum += g.InDegree(v)
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEdgeLabelAgreesWithEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 60)
		for _, e := range g.Edges() {
			if l, ok := g.EdgeLabel(e.From, e.To); !ok || (l != e.Label && !g.hasParallel(e.From, e.To)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// hasParallel reports whether more than one (u,v) edge exists; with
// parallel edges EdgeLabel may legitimately return the other label.
func (g *Graph) hasParallel(u, v int32) bool {
	c := 0
	for _, w := range g.OutNeighbors(u) {
		if w == v {
			c++
		}
	}
	return c > 1
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 2000, 20000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(n, m)
		bld.AddNodes(n)
		for _, e := range edges {
			bld.AddEdge(e.From, e.To, e.Label)
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := randomGraph(3, 1000, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(int32(i%1000), int32((i*7)%1000))
	}
}

func TestSimplify(t *testing.T) {
	b := NewBuilder(3, 6)
	b.AddNode(1)
	b.AddNode(2)
	b.AddNode(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(0, 1, 5) // exact duplicate
	b.AddEdge(0, 1, 6) // parallel, different label: kept
	b.AddEdge(1, 2, 5)
	g := b.MustBuild()
	s := g.Simplify()
	if s == g {
		t.Fatal("graph with duplicates returned unsimplified")
	}
	if s.NumEdges() != 3 {
		t.Fatalf("simplified edges = %d, want 3", s.NumEdges())
	}
	if s.NumNodes() != 3 || s.NodeLabel(2) != 3 {
		t.Fatal("Simplify changed nodes")
	}
	if !s.HasEdgeLabeled(0, 1, 5) || !s.HasEdgeLabeled(0, 1, 6) || !s.HasEdgeLabeled(1, 2, 5) {
		t.Fatal("Simplify dropped a distinct edge")
	}
	// No duplicates: identity.
	if s2 := s.Simplify(); s2 != s {
		t.Fatal("duplicate-free graph should be returned as-is")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Simplify() }); allocs != 0 {
		t.Fatalf("Simplify of a duplicate-free graph allocates %v times", allocs)
	}
}

func TestQuickSimplifyIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 60) // may contain duplicates
		s := g.Simplify()
		// Same reachability with labels: every edge of s is in g and
		// vice versa (as sets).
		for _, e := range s.Edges() {
			if !g.HasEdgeLabeled(e.From, e.To, e.Label) {
				return false
			}
		}
		for _, e := range g.Edges() {
			if !s.HasEdgeLabeled(e.From, e.To, e.Label) {
				return false
			}
		}
		return s.Simplify() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// mapSymmetric is the map-based definition Symmetric replaced, kept as
// its oracle: every arc pairs off with a reverse arc of the same label,
// self-loops excepted.
func mapSymmetric(g *Graph) bool {
	unpaired := make(map[Edge]int)
	for _, e := range g.Edges() {
		if e.From == e.To {
			continue
		}
		rev := Edge{From: e.To, To: e.From, Label: e.Label}
		if unpaired[rev] > 0 {
			unpaired[rev]--
		} else {
			unpaired[e]++
		}
	}
	for _, n := range unpaired {
		if n > 0 {
			return false
		}
	}
	return true
}

// mapSymmetricAt is SymmetricAt by definition: v's out-arcs and in-arcs
// counted into one map of (neighbor, label) multiplicities.
func mapSymmetricAt(g *Graph, v int32) bool {
	count := make(map[Edge]int)
	for i, w := range g.OutNeighbors(v) {
		count[Edge{To: w, Label: g.OutEdgeLabels(v)[i]}]++
	}
	for i, w := range g.InNeighbors(v) {
		count[Edge{To: w, Label: g.InEdgeLabels(v)[i]}]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// symmetricGraph builds a random symmetric graph: every arc comes with
// its reverse under the same label, drawn from [0, labels). Self-loops
// and parallel arcs, also of different labels, are included.
func symmetricGraph(rng *rand.Rand, n, m, labels int) *Graph {
	b := NewBuilder(n, 2*m)
	for i := 0; i < n; i++ {
		b.AddNode(Label(rng.Intn(4)))
	}
	for i := 0; i < m; i++ {
		u, v, l := int32(rng.Intn(n)), int32(rng.Intn(n)), Label(rng.Intn(labels))
		for k := 1 + rng.Intn(4)/3; k > 0; k-- { // a quarter of the pairs twice
			if u == v {
				b.AddEdge(u, u, l)
			} else {
				b.AddEdgeBoth(u, v, l)
			}
			l = Label(rng.Intn(labels))
		}
	}
	return b.MustBuild()
}

// TestSymmetricMatchesMapDefinition holds Symmetric and SymmetricAt to
// the map-based definition, on random graphs with parallel arcs,
// self-loops and three edge labels: symmetric ones, symmetric ones with
// one arc added or relabeled on one side (a near miss, down to a label
// inside a run of parallel arcs), and directed ones. Symmetric does not
// allocate.
func TestSymmetricMatchesMapDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	verdicts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		g := symmetricGraph(rng, n, rng.Intn(3*n), 3)
		switch trial % 3 {
		case 1: // one arc more, or one reverse arc relabeled
			b := NewBuilder(n, g.NumEdges()+1)
			for v := int32(0); v < int32(n); v++ {
				b.AddNode(g.NodeLabel(v))
			}
			edges := g.Edges()
			if len(edges) > 0 && rng.Intn(2) == 0 {
				edges[rng.Intn(len(edges))].Label = Label(rng.Intn(3))
			} else {
				edges = append(edges, Edge{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Label: Label(rng.Intn(3))})
			}
			for _, e := range edges {
				b.AddEdge(e.From, e.To, e.Label)
			}
			g = b.MustBuild()
		case 2: // directed
			b := NewBuilder(n, 2*n)
			for v := 0; v < n; v++ {
				b.AddNode(NoLabel)
			}
			for i := rng.Intn(2 * n); i > 0; i-- {
				b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), Label(rng.Intn(3)))
			}
			g = b.MustBuild()
		}
		want := mapSymmetric(g)
		if got := g.Symmetric(); got != want {
			t.Fatalf("trial %d: Symmetric() = %v, map definition %v on %v", trial, got, want, g.Edges())
		}
		verdicts[want]++
		for v := int32(0); v < int32(n); v++ {
			if got, want := g.SymmetricAt(v), mapSymmetricAt(g, v); got != want {
				t.Fatalf("trial %d: SymmetricAt(%d) = %v, map definition %v on %v", trial, v, got, want, g.Edges())
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { g.Symmetric() }); allocs != 0 {
			t.Fatalf("trial %d: Symmetric allocates %.1f times", trial, allocs)
		}
	}
	if verdicts[true] < 50 || verdicts[false] < 50 {
		t.Fatalf("verdicts too one-sided: %v", verdicts)
	}
}
