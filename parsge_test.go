package parsge

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"parsge/internal/testutil"
)

// squarePattern is an undirected 4-cycle with alternating labels.
func squarePattern() *Graph {
	b := NewBuilder(4, 8)
	b.AddNode(1)
	b.AddNode(2)
	b.AddNode(1)
	b.AddNode(2)
	b.AddEdgeBoth(0, 1, 0)
	b.AddEdgeBoth(1, 2, 0)
	b.AddEdgeBoth(2, 3, 0)
	b.AddEdgeBoth(3, 0, 0)
	return b.MustBuild()
}

// gridTarget builds a labeled 4x4 grid (checkerboard labels) which
// contains many labeled 4-cycles.
func gridTarget() *Graph {
	const k = 4
	b := NewBuilder(k*k, 4*k*k)
	for i := 0; i < k*k; i++ {
		r, c := i/k, i%k
		b.AddNode(Label(1 + (r+c)%2))
	}
	id := func(r, c int) int32 { return int32(r*k + c) }
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if c+1 < k {
				b.AddEdgeBoth(id(r, c), id(r, c+1), 0)
			}
			if r+1 < k {
				b.AddEdgeBoth(id(r, c), id(r+1, c), 0)
			}
		}
	}
	return b.MustBuild()
}

func TestAllAlgorithmsAgree(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	var counts []int64
	for _, alg := range []Algorithm{RI, RIDS, RIDSSI, RIDSSIFC, VF2} {
		res, err := Enumerate(gp, gt, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		counts = append(counts, res.Matches)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("algorithms disagree: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("grid should contain labeled squares")
	}
}

func TestParallelAgreesWithSequential(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	seq, err := Enumerate(gp, gt, Options{Algorithm: RIDSSIFC})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := Enumerate(gp, gt, Options{Algorithm: RIDSSIFC, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if par.Matches != seq.Matches {
			t.Errorf("workers=%d: %d matches, want %d", w, par.Matches, seq.Matches)
		}
		if len(par.PerWorkerStates) != w {
			t.Errorf("workers=%d: PerWorkerStates has %d entries", w, len(par.PerWorkerStates))
		}
	}
}

func TestCount(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	n, err := Count(gp, gt, Options{})
	if err != nil || n == 0 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestNilGraphs(t *testing.T) {
	if _, err := Enumerate(nil, gridTarget(), Options{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Enumerate(squarePattern(), nil, Options{}); err == nil {
		t.Error("nil target accepted")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Enumerate(squarePattern(), gridTarget(), Options{Algorithm: Algorithm(7)}); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		RI: "RI", RIDS: "RI-DS", RIDSSI: "RI-DS-SI", RIDSSIFC: "RI-DS-SI-FC",
		VF2: "VF2", Algorithm(9): "Algorithm(9)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestLimitAndVisit(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	res, err := Enumerate(gp, gt, Options{Limit: 2})
	if err != nil || res.Matches != 2 {
		t.Fatalf("limit: %+v, %v", res, err)
	}

	var mu sync.Mutex
	var got [][]int32
	_, err = Enumerate(gp, gt, Options{Workers: 4, Visit: func(m []int32) bool {
		mu.Lock()
		got = append(got, append([]int32(nil), m...))
		mu.Unlock()
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		for _, e := range gp.Edges() {
			if !gt.HasEdgeLabeled(m[e.From], m[e.To], e.Label) {
				t.Fatalf("invalid mapping delivered: %v", m)
			}
		}
	}
}

func TestTimeout(t *testing.T) {
	// A large unlabeled instance that cannot finish in a microsecond.
	gp, gt := testutil.RandomInstance(3, testutil.InstanceOptions{
		TargetNodes:  300,
		TargetEdges:  9000,
		PatternNodes: 8,
		NodeLabels:   1,
		Extract:      true,
	})
	res, err := Enumerate(gp, gt, Options{Algorithm: RI, Timeout: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skip("instance finished before the timeout fired; environment too fast")
	}
}

func TestGraphIORoundTripThroughFacade(t *testing.T) {
	table := NewLabelTable()
	gp := squarePattern()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, "sq", gp, table); err != nil {
		t.Fatal(err)
	}
	gs, err := ReadGraphs(strings.NewReader(buf.String()), table)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].Name != "sq" || gs[0].Graph.NumEdges() != gp.NumEdges() {
		t.Fatalf("round trip failed: %+v", gs)
	}
	// Labels written as integers intern back to consistent ids: matching
	// the round-tripped pattern against the original target must agree.
	n1, err := Count(gp, gridTarget(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("baseline count zero")
	}
}

func TestQuickFacadeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  10,
			TargetEdges:  30,
			PatternNodes: 4,
			Extract:      seed%2 == 0,
		})
		want := testutil.BruteCount(gp, gt)
		for _, alg := range []Algorithm{RI, RIDSSIFC, VF2} {
			n, err := Count(gp, gt, Options{Algorithm: alg})
			if err != nil || n != want {
				return false
			}
		}
		n, err := Count(gp, gt, Options{Algorithm: RIDS, Workers: 3})
		return err == nil && n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoAlgorithmSelection(t *testing.T) {
	// Sparse target → RI; dense target → RI-DS-SI-FC.
	sparse := NewBuilder(40, 80)
	sparse.AddNodes(40)
	for i := int32(1); i < 40; i++ {
		sparse.AddEdgeBoth(i-1, i, NoLabel)
	}
	if got := chooseAlgorithm(Auto, sparse.MustBuild()); got != RI {
		t.Errorf("sparse target chose %v, want RI", got)
	}
	if got := chooseAlgorithm(Auto, gridTarget()); got != RI {
		// 4x4 grid has mean total degree 2*2*24/16 = 6 < 12: still sparse.
		t.Errorf("grid chose %v, want RI", got)
	}
	dense := NewBuilder(20, 400)
	dense.AddNodes(20)
	for i := int32(0); i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			dense.AddEdgeBoth(i, j, NoLabel)
		}
	}
	if got := chooseAlgorithm(Auto, dense.MustBuild()); got != RIDSSIFC {
		t.Errorf("dense target chose %v, want RI-DS-SI-FC", got)
	}
	if got := chooseAlgorithm(RIDS, sparse.MustBuild()); got != RIDS {
		t.Errorf("explicit algorithm overridden: %v", got)
	}
	if got := chooseAlgorithm(Auto, (&Builder{}).MustBuild()); got != RI {
		t.Errorf("empty target chose %v, want RI", got)
	}
	if Auto.String() != "Auto" {
		t.Errorf("Auto.String() = %q", Auto.String())
	}
}

func TestAutoEndToEnd(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	want, err := Count(gp, gt, Options{Algorithm: RI})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Count(gp, gt, Options{Algorithm: Auto, Workers: AutoWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Auto = %d, want %d", got, want)
	}
}

func TestAutoWorkersNarrowSearch(t *testing.T) {
	// A pattern whose root has a single candidate: AutoWorkers must not
	// spin up more than one worker (we can only observe via success and
	// PerWorkerStates length when parallel was chosen).
	pb := NewBuilder(1, 0)
	pb.AddNode(7)
	tb := NewBuilder(2, 0)
	tb.AddNode(7)
	tb.AddNode(8)
	res, err := Enumerate(pb.MustBuild(), tb.MustBuild(), Options{Workers: AutoWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatalf("matches = %d, want 1", res.Matches)
	}
	if len(res.PerWorkerStates) > 1 {
		t.Fatalf("narrow search used %d workers", len(res.PerWorkerStates))
	}
}

// TestVisitCollectsEveryMapping: Options.Visit sees every embedding
// once, at one worker and on the steal pool, where it runs concurrently.
func TestVisitCollectsEveryMapping(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	want, err := Count(gp, gt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		var mu sync.Mutex
		var maps [][]int32
		visit := func(m []int32) bool {
			mu.Lock()
			maps = append(maps, append([]int32(nil), m...))
			mu.Unlock()
			return true
		}
		if _, err := Enumerate(gp, gt, Options{Workers: w, Visit: visit}); err != nil {
			t.Fatal(err)
		}
		if int64(len(maps)) != want {
			t.Fatalf("workers=%d: Visit collected %d mappings, want %d", w, len(maps), want)
		}
		for _, m := range maps {
			for _, e := range gp.Edges() {
				if !gt.HasEdgeLabeled(m[e.From], m[e.To], e.Label) {
					t.Fatalf("invalid mapping %v", m)
				}
			}
		}
	}
	if _, err := Enumerate(nil, gt, Options{}); err == nil {
		t.Fatal("Enumerate accepted nil pattern")
	}
}

// TestQuickNastyInstances cross-validates all engines on targets with
// parallel edges and self-loops — corner cases where a mapping must be
// counted exactly once regardless of edge multiplicity.
func TestQuickNastyInstances(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  9,
			TargetEdges:  40,
			PatternNodes: 3,
			Nasty:        true,
		})
		want := testutil.BruteCount(gp, gt)
		for _, alg := range []Algorithm{RI, RIDS, RIDSSI, RIDSSIFC, VF2, LAD} {
			n, err := Count(gp, gt, Options{Algorithm: alg})
			if err != nil || n != want {
				t.Logf("seed=%d alg=%v got=%d want=%d err=%v", seed, alg, n, want, err)
				return false
			}
		}
		n, err := Count(gp, gt, Options{Algorithm: RIDS, Workers: 4})
		if err != nil || n != want {
			t.Logf("seed=%d parallel got=%d want=%d", seed, n, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLADThroughFacade(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	want, err := Count(gp, gt, Options{Algorithm: RI})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Count(gp, gt, Options{Algorithm: LAD})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("LAD = %d, want %d", got, want)
	}
	if LAD.String() != "LAD" {
		t.Errorf("LAD.String() = %q", LAD.String())
	}
	// Limit flows through.
	n, err := Count(gp, gt, Options{Algorithm: LAD, Limit: 1})
	if err != nil || n != 1 {
		t.Fatalf("LAD limit: %d, %v", n, err)
	}
}

func TestInducedFacade(t *testing.T) {
	// Square pattern in a grid: every 4-cycle in a grid is chordless, so
	// induced and non-induced counts coincide here...
	gp, gt := squarePattern(), gridTarget()
	non, err := Count(gp, gt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := Count(gp, gt, Options{Semantics: InducedIso, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ind != non {
		t.Fatalf("grid 4-cycles: induced %d != non-induced %d", ind, non)
	}
	// ...and VF2/LAD now support every semantics, so they must agree.
	if got, err := Count(gp, gt, Options{Algorithm: VF2, Semantics: InducedIso}); err != nil || got != ind {
		t.Errorf("VF2 induced = %d, %v; want %d", got, err, ind)
	}
	if got, err := Count(gp, gt, Options{Algorithm: LAD, Semantics: InducedIso}); err != nil || got != ind {
		t.Errorf("LAD induced = %d, %v; want %d", got, err, ind)
	}
	// The sequential engine agrees with the parallel one.
	if got, err := Count(gp, gt, Options{Semantics: InducedIso}); err != nil || got != ind {
		t.Errorf("Semantics: InducedIso = %d, %v; want %d", got, err, ind)
	}
	if _, err := Count(gp, gt, Options{Semantics: Semantics(42)}); err == nil {
		t.Error("unknown Semantics accepted")
	}
}

func TestAutomorphisms(t *testing.T) {
	// Directed 3-cycle: Aut = 3 (rotations).
	b := NewBuilder(3, 3)
	b.AddNodes(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 0, 0)
	if n, err := Automorphisms(b.MustBuild()); err != nil || n != 3 {
		t.Fatalf("cycle automorphisms = %d, %v", n, err)
	}
	// Undirected edge: Aut = 2.
	e := NewBuilder(2, 2)
	e.AddNodes(2)
	e.AddEdgeBoth(0, 1, 0)
	if n, _ := Automorphisms(e.MustBuild()); n != 2 {
		t.Fatalf("edge automorphisms = %d", n)
	}
	// Labels break symmetry.
	l := NewBuilder(2, 2)
	l.AddNode(1)
	l.AddNode(2)
	l.AddEdgeBoth(0, 1, 0)
	if n, _ := Automorphisms(l.MustBuild()); n != 1 {
		t.Fatalf("labeled edge automorphisms = %d", n)
	}
	if n, err := Automorphisms((&Builder{}).MustBuild()); err != nil || n != 1 {
		t.Fatalf("empty pattern automorphisms = %d, %v", n, err)
	}
	if _, err := Automorphisms(nil); err == nil {
		t.Fatal("nil pattern accepted")
	}
}
