package graphio

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"parsge/internal/graph"
)

const sample = `
#pattern0
3
A
B
A
3
0 1 x
1 2 y
2 0 x

#pattern1
2
A
A
1
0 1
`

func TestReadAll(t *testing.T) {
	r := NewReader(strings.NewReader(sample), nil)
	gs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("parsed %d graphs, want 2", len(gs))
	}
	g0 := gs[0]
	if g0.Name != "pattern0" || g0.Graph.NumNodes() != 3 || g0.Graph.NumEdges() != 3 {
		t.Fatalf("graph 0 wrong: %v %v", g0.Name, g0.Graph)
	}
	if g0.Graph.NodeLabel(0) != g0.Graph.NodeLabel(2) {
		t.Error("nodes 0 and 2 should share label A")
	}
	if g0.Graph.NodeLabel(0) == g0.Graph.NodeLabel(1) {
		t.Error("nodes 0 and 1 should have different labels")
	}
	l01, ok := g0.Graph.EdgeLabel(0, 1)
	if !ok {
		t.Fatal("edge (0,1) missing")
	}
	l20, _ := g0.Graph.EdgeLabel(2, 0)
	if l01 != l20 {
		t.Error("edges with label x should share id")
	}
	if gs[1].Graph.NumEdges() != 1 {
		t.Error("graph 1 edges wrong")
	}
}

func TestSharedLabelTable(t *testing.T) {
	table := NewLabelTable()
	r1 := NewReader(strings.NewReader("#a\n1\nL\n0\n"), table)
	r2 := NewReader(strings.NewReader("#b\n1\nL\n0\n"), table)
	g1, err := r1.Read()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := r2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if g1.Graph.NodeLabel(0) != g2.Graph.NodeLabel(0) {
		t.Fatal("same string interned to different labels across readers")
	}
}

func TestReadEOF(t *testing.T) {
	r := NewReader(strings.NewReader("   \n\n"), nil)
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no header", "3\nA\n"},
		{"bad node count", "#g\nxyz\n"},
		{"negative node count", "#g\n-1\n"},
		{"missing labels", "#g\n2\nA\n"},
		{"bad edge count", "#g\n1\nA\nnope\n"},
		{"bad edge line", "#g\n2\nA\nB\n1\n0 1 2 3\n"},
		{"bad endpoints", "#g\n2\nA\nB\n1\nx y\n"},
		{"edge out of range", "#g\n2\nA\nB\n1\n0 9\n"},
		{"endpoint wider than int32", "#g\n2\nA\nB\n1\n4294967296 1\n"},
		{"truncated edges", "#g\n2\nA\nB\n2\n0 1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(c.in), nil)
			if _, err := r.Read(); err == nil || err == io.EOF {
				t.Fatalf("Read(%q) err = %v, want parse error", c.in, err)
			}
		})
	}
}

func TestUnderscoreIsNoLabel(t *testing.T) {
	r := NewReader(strings.NewReader("#g\n1\n_\n0\n"), nil)
	ng, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if ng.Graph.NodeLabel(0) != graph.NoLabel {
		t.Fatal("_ did not intern to NoLabel")
	}
}

func TestLabelTableName(t *testing.T) {
	tb := NewLabelTable()
	id := tb.Intern("hello")
	if tb.Name(id) != "hello" {
		t.Errorf("Name(%d) = %q", id, tb.Name(id))
	}
	if tb.Name(graph.Label(999)) != "?" {
		t.Error("unknown id should map to ?")
	}
	if tb.Name(graph.NoLabel) != "" {
		t.Error("NoLabel should map to empty string")
	}
	if tb.Size() != 2 {
		t.Errorf("Size = %d, want 2", tb.Size())
	}
}

// randomLabeled generates a random labeled graph plus its table.
func randomLabeled(seed int64) (*graph.Graph, *LabelTable) {
	rng := rand.New(rand.NewSource(seed))
	table := NewLabelTable()
	names := []string{"A", "B", "C", "D"}
	elabs := []string{"", "x", "y"}
	n := 2 + rng.Intn(20)
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		b.AddNode(table.Intern(names[rng.Intn(len(names))]))
	}
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), table.Intern(elabs[rng.Intn(len(elabs))]))
	}
	return b.MustBuild(), table
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g, table := randomLabeled(seed)
		var buf bytes.Buffer
		if err := Write(&buf, "g", g, table); err != nil {
			return false
		}
		r := NewReader(&buf, table)
		ng, err := r.Read()
		if err != nil {
			return false
		}
		g2 := ng.Graph
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if g.NodeLabel(v) != g2.NodeLabel(v) {
				return false
			}
		}
		e1, e2 := g.Edges(), g2.Edges()
		for i := range e1 {
			if e1[i] != e2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMultipleSections(t *testing.T) {
	g1, table := randomLabeled(1)
	g2, _ := randomLabeled(2)
	var buf bytes.Buffer
	if err := Write(&buf, "one", g1, table); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, "two", g2, table); err != nil {
		t.Fatal(err)
	}
	gs, err := NewReader(&buf, table).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0].Name != "one" || gs[1].Name != "two" {
		t.Fatalf("sections wrong: %+v", gs)
	}
}

func TestSpell(t *testing.T) {
	tb := NewLabelTable()
	id := tb.Intern("foo")
	if tb.Spell(id) != "foo" {
		t.Errorf("Spell(interned) = %q", tb.Spell(id))
	}
	if tb.Spell(graph.Label(77)) != "77" {
		t.Errorf("Spell(unknown) = %q, want decimal fallback", tb.Spell(graph.Label(77)))
	}
	if tb.Spell(graph.NoLabel) != "" {
		t.Errorf("Spell(NoLabel) = %q", tb.Spell(graph.NoLabel))
	}
}

// TestWriteNumericLabelsRoundTrip covers graphs built programmatically
// with labels never interned into the table (the sgegen case).
func TestWriteNumericLabelsRoundTrip(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddNode(graph.Label(31))
	b.AddNode(graph.Label(31))
	b.AddEdge(0, 1, graph.Label(5))
	g := b.MustBuild()
	table := NewLabelTable()
	var buf bytes.Buffer
	if err := Write(&buf, "num", g, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "31") || !strings.Contains(buf.String(), "0 1 5") {
		t.Fatalf("numeric labels not spelled:\n%s", buf.String())
	}
	ng, err := NewReader(&buf, table).Read()
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes keep EQUAL labels (value may differ from 31 — it is an
	// interned id for the string "31").
	if ng.Graph.NodeLabel(0) != ng.Graph.NodeLabel(1) {
		t.Fatal("equal labels diverged through round trip")
	}
}

func TestUndirectedDirective(t *testing.T) {
	// One undirected edge line must expand to both arcs; a self-loop
	// line to a single arc.
	in := "#u\n%undirected\n3\nA\nB\nA\n3\n0 1 x\n1 2\n2 2 y\n"
	gs, err := NewReader(strings.NewReader(in), nil).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	g := gs[0].Graph
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5 (2+2+1)", g.NumEdges())
	}
	for _, pair := range [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 2}} {
		if !g.HasEdge(pair[0], pair[1]) {
			t.Errorf("missing arc (%d,%d)", pair[0], pair[1])
		}
	}
	// An explicit %directed directive restores the default.
	in = "#d\n%directed\n2\nA\nA\n1\n0 1\n"
	gs, err = NewReader(strings.NewReader(in), nil).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if g := gs[0].Graph; g.NumEdges() != 1 || g.HasEdge(1, 0) {
		t.Errorf("directed section got reverse arc: %v", g)
	}
	// Unknown directives are a parse error, not silently ignored.
	if _, err := NewReader(strings.NewReader("#x\n%multigraph\n0\n0\n"), nil).ReadAll(); err == nil {
		t.Error("unknown directive accepted")
	}
}

func TestWriteUndirectedRoundTrip(t *testing.T) {
	table := NewLabelTable()
	b := graph.NewBuilder(4, 8)
	for _, l := range []string{"A", "B", "A", "C"} {
		b.AddNode(table.Intern(l))
	}
	b.AddEdgeBoth(0, 1, table.Intern("x"))
	b.AddEdgeBoth(1, 2, table.Intern("y"))
	b.AddEdgeBoth(2, 3, graph.NoLabel)
	b.AddEdge(3, 3, table.Intern("x")) // self-loop: one arc
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteUndirected(&buf, "g", g, table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "%undirected") {
		t.Fatalf("missing directive in output:\n%s", buf.String())
	}
	// 3 undirected lines + 1 self-loop line, not 7 arcs.
	if want := "4\n"; !strings.Contains(buf.String(), "\n"+want) {
		t.Errorf("expected edge count 4 in output:\n%s", buf.String())
	}
	gs, err := NewReader(&buf, table).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	back := gs[0].Graph
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: got %v, want %v", back, g)
	}
	for _, e := range g.Edges() {
		if !back.HasEdgeLabeled(e.From, e.To, e.Label) {
			t.Errorf("round trip lost arc (%d,%d,%d)", e.From, e.To, e.Label)
		}
	}

	// Asymmetric graphs are rejected rather than silently mangled.
	ab := graph.NewBuilder(2, 1)
	ab.AddNodes(2)
	ab.AddEdge(0, 1, graph.NoLabel)
	if err := WriteUndirected(io.Discard, "bad", ab.MustBuild(), table); err == nil {
		t.Error("asymmetric graph accepted")
	}
}

// TestParseAllocation bounds the bytes one parse of a small pattern
// allocates, so a fixed per-reader buffer (64 KB at one time) cannot
// come back unnoticed: a 20-node, 40-arc pattern read through a label
// table that already knows its labels, as the server reads requests,
// must stay within 8 KB. A text declaring 100 million nodes must fail
// at its first missing label without sizing anything by that count.
func TestParseAllocation(t *testing.T) {
	const nodes = 20
	table := NewLabelTable()
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(nodes, 0)
	for v := 0; v < nodes; v++ {
		b.AddNode(table.Intern(fmt.Sprint(v % 4)))
	}
	for b.NumEdges() < 40 {
		u, v := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
		if u != v && !b.HasEdgePending(u, v) {
			b.AddEdgeBoth(u, v, graph.NoLabel)
		}
	}
	var sb strings.Builder
	if err := Write(&sb, "p", b.MustBuild(), table); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	perParse := func(text string) uint64 {
		const runs = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			NewReader(strings.NewReader(text), table).ReadAll()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if got := perParse(text); got > 8<<10 {
		t.Errorf("parsing a %d-byte, %d-node pattern allocates %d bytes, want at most 8 KB", len(text), nodes, got)
	}

	huge := "#p\n100000000\n"
	if _, err := NewReader(strings.NewReader(huge), table).Read(); err == nil {
		t.Fatal("a pattern declaring 1e8 nodes and listing none parsed")
	}
	if got := perParse(huge); got > 8<<10 {
		t.Errorf("rejecting a pattern that declares 1e8 nodes allocates %d bytes, want at most 8 KB", got)
	}
}
