package domain

import (
	"fmt"
	"math/rand"
	"testing"

	"parsge/internal/graph"
)

// randomGraph builds a random labeled graph with n nodes, ~m arcs and
// labels drawn from [0, labels).
func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), graph.Label(rng.Intn(labels)))
	}
	return b.MustBuild()
}

func randomBatch(rng *rand.Rand, n, k, labels int) []graph.EdgeUpdate {
	ups := make([]graph.EdgeUpdate, k)
	for i := range ups {
		ups[i] = graph.EdgeUpdate{
			From:   int32(rng.Intn(n)),
			To:     int32(rng.Intn(n)),
			Label:  graph.Label(rng.Intn(labels)),
			Remove: rng.Intn(2) == 0,
		}
	}
	return ups
}

// TestIndexApplyUpdatesDifferential is the domain-level half of the
// incremental-vs-rebuild battery: across random update sequences, the
// incrementally-maintained index must be IndexEqual — signatures, key
// masks, the self-loop set, label buckets, stats down to the float
// bits — to a from-scratch NewIndex of the updated graph. A last pair
// of batches adds a target self-loop and removes it again, and the
// induced domains — whose unary filter reads the self-loop set — must
// equal a rebuild's.
func TestIndexApplyUpdatesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		g := randomGraph(rng, n, rng.Intn(3*n), 3)
		ix := NewIndex(g)
		for batch := 0; batch < 5; batch++ {
			g2, touched, _, _, err := g.ApplyUpdates(randomBatch(rng, n, 1+rng.Intn(6), 3))
			if err != nil {
				t.Fatal(err)
			}
			ix2 := ix
			if g2 != g {
				ix2 = ix.ApplyUpdates(g, g2, touched)
			}
			rebuilt := NewIndex(g2)
			if ok, diff := IndexEqual(ix2, rebuilt); !ok {
				t.Fatalf("trial %d batch %d: incremental index differs from rebuild: %s", trial, batch, diff)
			}
			g, ix = g2, ix2
		}
	}

	// Target: 0(A)→2(B), 1(A)→3(B). The first pattern, A→B, keeps
	// target 0 under induced semantics only while 0 has no self-loop;
	// the second, a looped A, needs one.
	base := buildGraph([]graph.Label{0, 0, 1, 1}, [][3]int32{{0, 2, 0}, {1, 3, 0}})
	patterns := []*graph.Graph{
		buildGraph([]graph.Label{0, 1}, [][3]int32{{0, 1, 0}}),
		buildGraph([]graph.Label{0}, [][3]int32{{0, 0, 0}}),
	}
	loop := graph.EdgeUpdate{From: 0, To: 0, Label: 0}
	unloop := loop
	unloop.Remove = true
	g, ix := base, NewIndex(base)
	for _, batch := range [][]graph.EdgeUpdate{{loop}, {unloop}} {
		g2, touched, _, _, err := g.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		ix2 := ix.ApplyUpdates(g, g2, touched)
		rebuilt := NewIndex(g2)
		if ok, diff := IndexEqual(ix2, rebuilt); !ok {
			t.Fatalf("%+v: incremental index differs from rebuild: %s", batch[0], diff)
		}
		if looped := g2.HasEdge(0, 0); ix2.loops.Test(0) != looped || !ix2.loops.Equal(rebuilt.loops) {
			t.Fatalf("%+v: self-loop set %v, rebuild %v", batch[0], ix2.loops, rebuilt.loops)
		}
		for pi, pat := range patterns {
			di := Compute(pat, g2, Options{Index: ix2, Semantics: graph.InducedIso})
			dr := Compute(pat, g2, Options{Index: rebuilt, Semantics: graph.InducedIso})
			for vp := int32(0); vp < int32(pat.NumNodes()); vp++ {
				if !di.Of(vp).Equal(dr.Of(vp)) {
					t.Fatalf("%+v pattern %d node %d: induced domain %v, rebuild %v", batch[0], pi, vp, di.Of(vp), dr.Of(vp))
				}
			}
			if kept := di.Of(0).Test(0); kept != (g2.HasEdge(0, 0) == (pi == 1)) {
				t.Fatalf("%+v pattern %d: target 0 kept=%v with the self-loop set at %v", batch[0], pi, kept, ix2.loops)
			}
		}
		g, ix = g2, ix2
	}
}

// TestIndexApplyUpdatesKeepsOldRows: carrying the row cache forward
// copies every row it changes. After each update both the new index's
// rows and the old index's — which may still be serving queries — must
// equal a clean build of their own graph, BitGraph and threshold rows
// alike.
func TestIndexApplyUpdatesKeepsOldRows(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(12)
		g := randomGraph(rng, n, rng.Intn(4*n), 2)
		ix := NewIndex(g)
		ix.Rows(g)
		for batch := 0; batch < 6; batch++ {
			g2, touched, _, _, err := g.ApplyUpdates(randomBatch(rng, n, 1+rng.Intn(8), 2))
			if err != nil {
				t.Fatal(err)
			}
			if g2 == g {
				continue
			}
			ix2 := ix.ApplyUpdates(g, g2, touched)
			for _, c := range []struct {
				name string
				g    *graph.Graph
				ix   *Index
			}{{"old", g, ix}, {"new", g2, ix2}} {
				if !c.ix.HasRows() {
					t.Fatalf("trial %d batch %d: %s index lost its rows", trial, batch, c.name)
				}
				clean := NewIndex(c.g)
				clean.Rows(c.g)
				if ok, diff := IndexEqual(c.ix, clean); !ok {
					t.Fatalf("trial %d batch %d: %s index differs from a clean build: %s", trial, batch, c.name, diff)
				}
			}
			g, ix = g2, ix2
		}
	}
}

// TestIndexApplyUpdatesRebatch: on a target of rebatchMinNodes nodes,
// updates carry the rows until they have touched half the vertices; the
// batch that passes that builds them afresh, sharing no row. Every
// index equals a clean build, rows included.
func TestIndexApplyUpdatesRebatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := rebatchMinNodes
	g := randomGraph(rng, n, 4*n, 2)
	ix := NewIndex(g)
	ix.Rows(g)
	for batch, rebuilt := 0, false; !rebuilt; batch++ {
		g2, touched, _, _, err := g.ApplyUpdates(randomBatch(rng, n, 64, 2))
		if err != nil {
			t.Fatal(err)
		}
		if g2 == g {
			continue
		}
		old := ix.cachedRows()
		ix2 := ix.ApplyUpdates(g, g2, touched)
		c := ix2.cachedRows()
		if c == nil || ix2.nlf == nil {
			t.Fatalf("batch %d: rows or threshold rows lost", batch)
		}
		churn := old.churn + len(touched)
		rebuilt = 2*churn > n
		shared := 0
		for v := range c.rows.Out {
			if c.rows.Out[v] == old.rows.Out[v] {
				shared++
			}
		}
		switch {
		case rebuilt && c.churn != 0:
			t.Fatalf("batch %d: churn %d past half of %d nodes, rows carried with churn %d", batch, churn, n, c.churn)
		case rebuilt && shared > 0:
			t.Fatalf("batch %d: rows built afresh share %d rows with the old ones", batch, shared)
		case !rebuilt && c.churn != churn:
			t.Fatalf("batch %d: churn %d, want %d", batch, c.churn, churn)
		}
		clean := NewIndex(g2)
		clean.Rows(g2)
		if ok, diff := IndexEqual(ix2, clean); !ok {
			t.Fatalf("batch %d: index differs from a clean build: %s", batch, diff)
		}
		g, ix = g2, ix2
	}
}

// TestIndexApplyUpdatesSharing pins the structural-sharing contract:
// untouched nodes' signatures are shared with the previous index, and
// byLabel is carried over as-is. The target's node labels lie 2^20
// apart, so its key table is past maxKeySlots and the index keeps
// signatures. On a target with threshold rows, an untouched vertex's
// Out row is the parent's, and so is every threshold row the update
// left unchanged.
func TestIndexApplyUpdatesSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := randomGraph(rng, 8, 16, 3)
	wide := graph.NewBuilder(8, base.NumEdges())
	for v := int32(0); v < 8; v++ {
		wide.AddNode(base.NodeLabel(v) << 20)
	}
	for _, e := range base.Edges() {
		wide.AddEdge(e.From, e.To, e.Label)
	}
	for _, g := range []*graph.Graph{wide.MustBuild(), base} {
		ix := NewIndex(g)
		ix.Rows(g)
		g2, touched, _, _, err := g.ApplyUpdates([]graph.EdgeUpdate{{From: 0, To: 1, Label: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ix2 := ix.ApplyUpdates(g, g2, touched)
		if (ix.nlf == nil) != (g != base) || (ix2.nlf == nil) != (g != base) {
			t.Fatalf("threshold rows %v → %v, want them on the narrow-label target only", ix.nlf != nil, ix2.nlf != nil)
		}
		tset := map[int32]bool{}
		for _, v := range touched {
			tset[v] = true
		}
		rows, rows2 := ix.Rows(g), ix2.Rows(g2)
		for v := 0; v < 8; v++ {
			if tset[int32(v)] {
				continue
			}
			if rows.Out[v] != rows2.Out[v] {
				t.Fatalf("untouched node %d out row was copied, not shared", v)
			}
			if ix.nlf == nil && len(ix.out[v].keys) > 0 && &ix.out[v].keys[0] != &ix2.out[v].keys[0] {
				t.Fatalf("untouched node %d out signature was copied, not shared", v)
			}
		}
		if ix.nlf != nil {
			checkRowsCarried(t, ix, ix2, "one-arc update")
		}
		if &ix.byLabel == nil || len(ix2.byLabel) != len(ix.byLabel) {
			t.Fatal("byLabel not carried over")
		}
	}
}

// checkRowsCarried fails unless every threshold row of ix2, the index
// an update derived from ix, that the update left unchanged is ix's row
// itself.
func checkRowsCarried(t *testing.T, ix, ix2 *Index, when string) {
	t.Helper()
	for _, dir := range []struct {
		name  string
		t, t2 *thresholdRows
	}{{"out", ix.nlf.out, ix2.nlf.out}, {"in", ix.nlf.in, ix2.nlf.in}} {
		for s, d := range dir.t.depth {
			for c := int32(1); c <= min(d, dir.t2.depth[s]); c++ {
				r, r2 := dir.t.row(s, c), dir.t2.row(s, c)
				if r.Equal(r2) && r != r2 {
					t.Fatalf("%s: %s threshold row (%#x, %d) is unchanged but was copied", when, dir.name, ix.nlf.key(s), c)
				}
			}
		}
	}
}

// checkFamilySharing fails unless ix has threshold rows and no
// signature or mask tables, and each in-family row is the out-family
// row of the same key and count exactly when the two are equal.
func checkFamilySharing(t *testing.T, ix *Index, when string) {
	t.Helper()
	if ix.nlf == nil || ix.out != nil || ix.in != nil || ix.outMask != nil || ix.inMask != nil {
		t.Fatalf("%s: threshold rows %v, signature tables %v/%v, mask tables %v/%v", when,
			ix.nlf != nil, ix.out != nil, ix.in != nil, ix.outMask != nil, ix.inMask != nil)
	}
	out, in := ix.nlf.out, ix.nlf.in
	for s := range out.depth {
		for c := int32(1); c <= min(out.depth[s], in.depth[s]); c++ {
			ro, ri := out.row(s, c), in.row(s, c)
			if equal, shared := ro.Equal(ri), ro == ri; equal != shared {
				t.Fatalf("%s: key %#x count %d: rows equal=%v, shared=%v", when, ix.nlf.key(s), c, equal, shared)
			}
		}
	}
}

// TestThresholdRowsShareInFamily: the in family of threshold rows
// stores a row only where it differs from the out family, under one
// edge label and under three. On a symmetric target every in row is its
// out row. Through random update batches, led by one arc u→v that
// breaks both endpoints' symmetry and its undo, which restores it, the
// carried rows equal a clean build's, an in row is its out row exactly
// when the two are equal, every row the batch left unchanged is the old
// index's own, and the old index keeps its rows as they were.
func TestThresholdRowsShareInFamily(t *testing.T) {
	for _, labels := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(73 + labels)))
		const n = 40
		b := graph.NewBuilder(n, 4*n)
		for i := 0; i < n; i++ {
			b.AddNode(graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 2*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddEdgeBoth(u, v, graph.Label(rng.Intn(labels)))
			}
		}
		g := b.MustBuild()
		ix := NewIndex(g)
		ix.Rows(g)
		when := fmt.Sprintf("%d labels, NewIndex", labels)
		checkFamilySharing(t, ix, when)
		for s, d := range ix.nlf.out.depth {
			for c := int32(1); c <= d; c++ {
				if ix.nlf.in.row(s, c) != ix.nlf.out.row(s, c) {
					t.Fatalf("%s: symmetric target's in row (%#x, %d) is not its out row", when, ix.nlf.key(s), c)
				}
			}
		}
		u, v := int32(0), int32(1)
		for g.HasEdge(u, v) || g.NodeLabel(u) == g.NodeLabel(v) {
			v++
		}
		batches := [][]graph.EdgeUpdate{{{From: u, To: v}}, {{From: u, To: v, Remove: true}}}
		for i := 0; i < 10; i++ {
			batch := randomBatch(rng, n, 1+rng.Intn(4), labels)
			for _, e := range batch[:len(batch)/2] {
				batch = append(batch, graph.EdgeUpdate{From: e.To, To: e.From, Label: e.Label, Remove: e.Remove})
			}
			batches = append(batches, batch)
		}
		for step, batch := range batches {
			g2, touched, _, _, err := g.ApplyUpdates(batch)
			if err != nil {
				t.Fatal(err)
			}
			if g2 == g {
				continue
			}
			ix2 := ix.ApplyUpdates(g, g2, touched)
			when := fmt.Sprintf("%d labels, step %d", labels, step)
			for _, c := range []struct {
				name string
				g    *graph.Graph
				ix   *Index
			}{{"old", g, ix}, {"new", g2, ix2}} {
				clean := NewIndex(c.g)
				clean.Rows(c.g)
				if ok, diff := IndexEqual(c.ix, clean); !ok {
					t.Fatalf("%s: %s index differs from a clean build: %s", when, c.name, diff)
				}
				checkFamilySharing(t, c.ix, when+" "+c.name)
			}
			checkRowsCarried(t, ix, ix2, when)
			if step == 0 {
				shared := 0
				for s, d := range ix2.nlf.out.depth {
					for c := int32(1); c <= min(d, ix2.nlf.in.depth[s]); c++ {
						if ix2.nlf.in.row(s, c) == ix2.nlf.out.row(s, c) {
							shared++
						}
					}
				}
				if shared == len(ix2.nlf.out.rows) && shared == len(ix2.nlf.in.rows) {
					t.Fatalf("%s: arc %d→%d left every in row shared", when, u, v)
				}
			}
			g, ix = g2, ix2
		}
	}
}

// TestStatsDeterminism: StatsOf must be bit-for-bit reproducible across
// calls (sorted-order entropy, integer degree moments) — the property
// incremental maintenance relies on.
func TestStatsDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(20), rng.Intn(60), 5)
		a := StatsOf(g)
		for i := 0; i < 5; i++ {
			if b := StatsOf(g); a != b {
				t.Fatalf("StatsOf not deterministic: %+v vs %+v", a, b)
			}
		}
	}
}
