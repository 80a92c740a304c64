package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"parsge/internal/bitset"
)

// sharesRows reports whether two row slices are the same slice, not
// merely equal rows.
func sharesRows(a, b []*bitset.Set) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// oneLabelGraph builds a random directed graph whose edges all carry
// NoLabel, self-loops and parallel arcs included.
func oneLabelGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddNode(Label(rng.Intn(4)))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), NoLabel)
	}
	return b.MustBuild()
}

// checkLabelRowSharing fails unless a one-label BitGraph's label rows
// are its direction rows themselves, and a larger alphabet's are not.
func checkLabelRowSharing(t *testing.T, bg *BitGraph, when string) {
	t.Helper()
	for l := range bg.OutLab {
		shared := sharesRows(bg.OutLab[l], bg.Out) && sharesRows(bg.InLab[l], bg.In)
		if want := len(bg.OutLab) == 1; shared != want {
			t.Fatalf("%s: %d-label alphabet, label %d rows shared with Out/In = %v", when, len(bg.OutLab), l, shared)
		}
	}
}

// TestBitGraphOneLabelSharesRows: a target whose edges all carry one
// label stores its label rows once, as the Out and In slices, after a
// clean build and after an incremental Rebuild of touched rows.
func TestBitGraphOneLabelSharesRows(t *testing.T) {
	g := oneLabelGraph(3, 40, 120)
	bg := NewBitGraph(g)
	if len(bg.OutLab) != 1 {
		t.Fatalf("random graph has %d edge labels, want 1", len(bg.OutLab))
	}
	checkLabelRowSharing(t, bg, "NewBitGraph")
	g2, touched, _, _, err := g.ApplyUpdates([]EdgeUpdate{{From: 0, To: 1}, {From: 5, To: 7}, {From: 2, To: 9, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	bg2 := bg.Rebuild(g2, touched)
	checkLabelRowSharing(t, bg2, "Rebuild")
	if ok, why := BitGraphEqual(bg2, NewBitGraph(g2)); !ok {
		t.Fatalf("Rebuild differs from a clean build: %s", why)
	}
	// The old graph's rows are untouched by the rebuild.
	if ok, why := BitGraphEqual(bg, NewBitGraph(g)); !ok {
		t.Fatalf("Rebuild changed the old rows: %s", why)
	}
}

// TestBitGraphRebuildRandom: after each of a seeded sequence of random
// update batches, the incrementally rebuilt rows equal a clean build.
// One batch adds a second edge label and a later one removes it again,
// so the alphabet goes 1 → 2 → 1 and the label rows go from shared to
// separate and back.
func TestBitGraphRebuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 30
	g := oneLabelGraph(29, n, 90)
	bg := NewBitGraph(g)
	labels := []int{1, 1, 1, 2, 2, 2, 1, 1}
	for step, want := range labels {
		var batch []EdgeUpdate
		for i := 0; i < 1+rng.Intn(6); i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			batch = append(batch, EdgeUpdate{From: u, To: v, Remove: rng.Intn(3) == 0})
		}
		switch {
		case want == 2 && len(bg.OutLab) == 1:
			batch = append(batch, EdgeUpdate{From: 3, To: 4, Label: 7})
		case want == 1 && len(bg.OutLab) == 2:
			for v := int32(0); v < n; v++ {
				for i, w := range g.OutNeighbors(v) {
					if g.OutEdgeLabels(v)[i] == 7 {
						batch = append(batch, EdgeUpdate{From: v, To: w, Label: 7, Remove: true})
					}
				}
			}
		}
		g2, touched, _, _, err := g.ApplyUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		bg2 := bg.Rebuild(g2, touched)
		if ok, why := BitGraphEqual(bg2, NewBitGraph(g2)); !ok {
			t.Fatalf("step %d: Rebuild differs from a clean build: %s", step, why)
		}
		if len(bg2.OutLab) != want {
			t.Fatalf("step %d: %d edge labels, want %d", step, len(bg2.OutLab), want)
		}
		checkLabelRowSharing(t, bg2, "Rebuild")
		g, bg = g2, bg2
	}
}

// checkSymmetricSharing fails unless bg's In row, and each label's in
// row, is its Out row exactly at the vertices of g that are
// SymmetricAt.
func checkSymmetricSharing(t *testing.T, g *Graph, bg *BitGraph, when string) {
	t.Helper()
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		want := g.SymmetricAt(v)
		if shared := bg.In[v] == bg.Out[v]; shared != want {
			t.Fatalf("%s: vertex %d symmetric=%v, In row shared=%v", when, v, want, shared)
		}
		for l := range bg.OutLab {
			if shared := bg.InLab[l][v] == bg.OutLab[l][v]; shared != want {
				t.Fatalf("%s: vertex %d symmetric=%v, label %d in row shared=%v", when, v, want, l, shared)
			}
		}
	}
}

// TestBitGraphSharesSymmetricRows: a vertex whose in-arcs equal its
// out-arcs stores one row for both directions, under one edge label and
// under three. A symmetric graph shares every row; an asymmetric one
// gives exactly its asymmetric vertices an In row of their own. Through
// random update batches, led by one arc u→v that breaks both endpoints'
// symmetry and its undo, which restores it, the rebuilt rows equal a
// clean build, share at exactly the symmetric vertices, and leave the
// old rows as they were.
func TestBitGraphSharesSymmetricRows(t *testing.T) {
	for _, labels := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(71 + labels)))
		const n = 40
		g := symmetricGraph(rng, n, 90, labels)
		bg := NewBitGraph(g)
		if !g.Symmetric() || len(bg.OutLab) != labels {
			t.Fatalf("%d labels: generator gave symmetric=%v, %d labels", labels, g.Symmetric(), len(bg.OutLab))
		}
		checkSymmetricSharing(t, g, bg, "NewBitGraph")
		u, v := int32(0), int32(1)
		for g.HasEdge(u, v) || g.HasEdge(v, u) {
			v++
		}
		batches := [][]EdgeUpdate{{{From: u, To: v}}, {{From: u, To: v, Remove: true}}}
		for i := 0; i < 8; i++ {
			var batch []EdgeUpdate
			for k := 1 + rng.Intn(4); k > 0; k-- {
				e := EdgeUpdate{From: int32(rng.Intn(n)), To: int32(rng.Intn(n)), Label: Label(rng.Intn(labels)), Remove: rng.Intn(3) == 0}
				batch = append(batch, e)
				if rng.Intn(2) == 0 {
					batch = append(batch, EdgeUpdate{From: e.To, To: e.From, Label: e.Label, Remove: e.Remove})
				}
			}
			batches = append(batches, batch)
		}
		for step, batch := range batches {
			g2, touched, _, _, err := g.ApplyUpdates(batch)
			if err != nil {
				t.Fatal(err)
			}
			bg2 := bg.Rebuild(g2, touched)
			when := fmt.Sprintf("%d labels, step %d", labels, step)
			if ok, why := BitGraphEqual(bg2, NewBitGraph(g2)); !ok {
				t.Fatalf("%s: Rebuild differs from a clean build: %s", when, why)
			}
			checkSymmetricSharing(t, g2, bg2, when)
			if ok, why := BitGraphEqual(bg, NewBitGraph(g)); !ok {
				t.Fatalf("%s: Rebuild changed the old rows: %s", when, why)
			}
			switch step {
			case 0:
				if g2.SymmetricAt(u) || g2.SymmetricAt(v) {
					t.Fatalf("%s: arc %d→%d left an endpoint symmetric", when, u, v)
				}
			case 1:
				if !g2.Symmetric() {
					t.Fatalf("%s: undoing arc %d→%d left the graph asymmetric", when, u, v)
				}
			}
			g, bg = g2, bg2
		}
		if g.Symmetric() {
			t.Fatalf("%d labels: random batches left the graph symmetric", labels)
		}
		checkSymmetricSharing(t, g, NewBitGraph(g), fmt.Sprintf("%d labels, asymmetric NewBitGraph", labels))
	}
}
