package ri

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"parsge/internal/datasets"
	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/order"
	"parsge/internal/testutil"
)

var allVariants = []Variant{VariantRI, VariantRIDS, VariantRIDSSI, VariantRIDSSIFC}

func mustEnumerate(t *testing.T, gp, gt *graph.Graph, v Variant, run RunOptions) Result {
	t.Helper()
	res, err := Enumerate(gp, gt, Options{Variant: v}, run)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// trianglePair builds a directed triangle pattern and a target containing
// exactly two triangles sharing no vertices.
func trianglePair() (gp, gt *graph.Graph) {
	bp := &graph.Builder{}
	bp.AddNodes(3)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(1, 2, 0)
	bp.AddEdge(2, 0, 0)
	gp = bp.MustBuild()

	bt := &graph.Builder{}
	bt.AddNodes(6)
	for _, base := range []int32{0, 3} {
		bt.AddEdge(base, base+1, 0)
		bt.AddEdge(base+1, base+2, 0)
		bt.AddEdge(base+2, base, 0)
	}
	gt = bt.MustBuild()
	return gp, gt
}

func TestTriangles(t *testing.T) {
	gp, gt := trianglePair()
	// Each directed triangle matches in 3 rotations; two triangles → 6.
	for _, v := range allVariants {
		res := mustEnumerate(t, gp, gt, v, RunOptions{})
		if res.Matches != 6 {
			t.Errorf("%v: matches = %d, want 6", v, res.Matches)
		}
		if res.States <= 0 {
			t.Errorf("%v: search visited no states", v)
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	gp := (&graph.Builder{}).MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	gt := bt.MustBuild()
	for _, v := range allVariants {
		res := mustEnumerate(t, gp, gt, v, RunOptions{})
		if res.Matches != 0 {
			t.Errorf("%v: empty pattern yielded %d matches", v, res.Matches)
		}
	}
}

func TestPatternLargerThanTarget(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(4)
	bp.AddEdgeBoth(0, 1, 0)
	bp.AddEdgeBoth(1, 2, 0)
	bp.AddEdgeBoth(2, 3, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(2)
	bt.AddEdgeBoth(0, 1, 0)
	gt := bt.MustBuild()
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != 0 {
			t.Errorf("%v: impossible instance yielded %d matches", v, res.Matches)
		}
	}
}

func TestNodeLabelsRespected(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(1)
	bp.AddNode(2)
	bp.AddEdge(0, 1, 0)
	gp := bp.MustBuild()

	bt := &graph.Builder{}
	bt.AddNode(1)
	bt.AddNode(2)
	bt.AddNode(2)
	bt.AddEdge(0, 1, 0) // label-compatible
	bt.AddEdge(1, 2, 0) // 1 has label 2, pattern wants 1→2
	gt := bt.MustBuild()
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != 1 {
			t.Errorf("%v: matches = %d, want 1", v, res.Matches)
		}
	}
}

func TestEdgeLabelsRespected(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(2)
	bp.AddEdge(0, 1, 5)
	gp := bp.MustBuild()

	bt := &graph.Builder{}
	bt.AddNodes(3)
	bt.AddEdge(0, 1, 5)
	bt.AddEdge(1, 2, 6)
	gt := bt.MustBuild()
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != 1 {
			t.Errorf("%v: matches = %d, want 1", v, res.Matches)
		}
	}
}

func TestDirectionality(t *testing.T) {
	// Pattern 0→1 must not match target 1→0 only.
	bp := &graph.Builder{}
	bp.AddNodes(2)
	bp.AddEdge(0, 1, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(2)
	bt.AddEdge(1, 0, 0)
	gt := bt.MustBuild()
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != 1 {
			// (0,1)→(1,0) is the single valid mapping.
			t.Errorf("%v: matches = %d, want 1", v, res.Matches)
		}
	}
}

func TestNonInducedSemantics(t *testing.T) {
	// Pattern path 0→1→2; target triangle has the extra edge 2→0, which
	// must NOT disqualify the match (non-induced enumeration).
	bp := &graph.Builder{}
	bp.AddNodes(3)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(1, 2, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	bt.AddEdge(0, 1, 0)
	bt.AddEdge(1, 2, 0)
	bt.AddEdge(2, 0, 0)
	gt := bt.MustBuild()
	want := testutil.BruteCount(gp, gt) // 3 rotations
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != want {
			t.Errorf("%v: matches = %d, want %d", v, res.Matches, want)
		}
	}
}

func TestVisitCallback(t *testing.T) {
	gp, gt := trianglePair()
	var seen [][]int32
	res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{
		Visit: func(m []int32) bool {
			cp := append([]int32(nil), m...)
			seen = append(seen, cp)
			return true
		},
	})
	if int64(len(seen)) != res.Matches {
		t.Fatalf("callback called %d times for %d matches", len(seen), res.Matches)
	}
	// Each mapping must be a valid injective, edge-preserving map.
	for _, m := range seen {
		usedT := map[int32]bool{}
		for _, vt := range m {
			if usedT[vt] {
				t.Fatal("mapping not injective")
			}
			usedT[vt] = true
		}
		for _, e := range gp.Edges() {
			if !gt.HasEdgeLabeled(m[e.From], m[e.To], e.Label) {
				t.Fatalf("mapping %v does not preserve edge %v", m, e)
			}
		}
	}
}

func TestVisitStop(t *testing.T) {
	gp, gt := trianglePair()
	calls := 0
	res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{
		Visit: func([]int32) bool {
			calls++
			return calls < 2
		},
	})
	if calls != 2 {
		t.Fatalf("visit called %d times, want 2", calls)
	}
	if res.Matches != 2 {
		t.Fatalf("Matches = %d, want 2 (stopped)", res.Matches)
	}
}

func TestLimit(t *testing.T) {
	gp, gt := trianglePair()
	res := mustEnumerate(t, gp, gt, VariantRIDS, RunOptions{Limit: 3})
	if res.Matches != 3 {
		t.Fatalf("Matches = %d, want 3", res.Matches)
	}
}

func TestCancel(t *testing.T) {
	gp, gt := trianglePair()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before starting: Run aborts before any search
	res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{Ctx: ctx})
	if !res.Aborted {
		t.Fatal("pre-cancelled context did not abort the run")
	}
	if res.Matches != 0 {
		t.Fatalf("aborted-before-start run found %d matches", res.Matches)
	}
	// An already-expired ctx must not disturb a fresh run's results.
	res = mustEnumerate(t, gp, gt, VariantRI, RunOptions{Ctx: context.Background()})
	if res.Aborted || res.Matches != 6 {
		t.Fatalf("background ctx run: aborted=%v matches=%d", res.Aborted, res.Matches)
	}
}

func TestArenaReuse(t *testing.T) {
	gp, gt := trianglePair()
	arena := NewArena(gt.NumNodes())
	for i := 0; i < 3; i++ {
		res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{Arena: arena})
		if res.Matches != 6 {
			t.Fatalf("run %d with arena: %d matches, want 6", i, res.Matches)
		}
	}
	// A mis-sized arena is ignored, not trusted.
	res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{Arena: NewArena(1)})
	if res.Matches != 6 {
		t.Fatalf("mis-sized arena run: %d matches, want 6", res.Matches)
	}
	// Early-stopped runs (Limit) must still return the buffer clean.
	lim := mustEnumerate(t, gp, gt, VariantRI, RunOptions{Arena: arena, Limit: 1})
	if lim.Matches != 1 {
		t.Fatalf("limit run: %d matches", lim.Matches)
	}
	u := arena.AcquireUsed()
	for i, b := range u {
		if b {
			t.Fatalf("arena buffer returned dirty at %d", i)
		}
	}
	arena.ReleaseUsed(u)
}

func TestTargetIndexAgrees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 40, TargetEdges: 160, PatternNodes: 4,
			NodeLabels: 3, Extract: seed%2 == 0,
		})
		ix := domain.NewIndex(gt)
		for _, v := range allVariants {
			plain := mustEnumerate(t, gp, gt, v, RunOptions{})
			res, err := Enumerate(gp, gt, Options{Variant: v, TargetIndex: ix}, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != plain.Matches {
				t.Fatalf("seed %d %v: indexed %d matches, plain %d", seed, v, res.Matches, plain.Matches)
			}
		}
	}
}

func TestUnsatisfiableByDomains(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(9) // label that does not occur in the target
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNode(1)
	gt := bt.MustBuild()
	res := mustEnumerate(t, gp, gt, VariantRIDS, RunOptions{})
	if !res.Unsatisfiable || res.Matches != 0 || res.States != 0 {
		t.Fatalf("expected unsat shortcut, got %+v", res)
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		VariantRI:       "RI",
		VariantRIDS:     "RI-DS",
		VariantRIDSSI:   "RI-DS-SI",
		VariantRIDSSIFC: "RI-DS-SI-FC",
		Variant(42):     "Variant(42)",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Two disjoint edges as pattern; target has three disjoint edges.
	bp := &graph.Builder{}
	bp.AddNodes(4)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(2, 3, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(6)
	bt.AddEdge(0, 1, 0)
	bt.AddEdge(2, 3, 0)
	bt.AddEdge(4, 5, 0)
	gt := bt.MustBuild()
	want := testutil.BruteCount(gp, gt) // 3*2 = 6 ordered pairs of distinct edges
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != want {
			t.Errorf("%v: matches = %d, want %d", v, res.Matches, want)
		}
	}
}

// TestQuickAllVariantsAgreeWithBruteForce is the central cross-validation:
// on random instances (both extracted-subgraph and independent patterns),
// every variant must produce exactly the brute-force match count.
func TestQuickAllVariantsAgreeWithBruteForce(t *testing.T) {
	f := func(seed int64, extract bool) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  10,
			TargetEdges:  35,
			PatternNodes: 4,
			Extract:      extract,
		})
		want := testutil.BruteCount(gp, gt)
		for _, v := range allVariants {
			res, err := Enumerate(gp, gt, Options{Variant: v}, RunOptions{})
			if err != nil || res.Matches != want {
				t.Logf("seed=%d extract=%v variant=%v got=%d want=%d err=%v",
					seed, extract, v, res.Matches, want, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtractedAlwaysMatches: extracted patterns must match at least
// once — this validates the generator as much as the engine.
func TestQuickExtractedAlwaysMatches(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  14,
			TargetEdges:  50,
			PatternNodes: 5,
			Extract:      true,
		})
		res, err := Enumerate(gp, gt, Options{Variant: VariantRIDSSIFC}, RunOptions{Limit: 1})
		return err == nil && res.Matches >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickImprovementsNeverExpandSearch: SI and FC must not *increase*
// match counts, and FC's search space must not exceed RI-DS-SI's on the
// same instance (it only removes candidates).
func TestQuickSearchSpaceShrinks(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  12,
			TargetEdges:  45,
			PatternNodes: 5,
			Extract:      true,
		})
		ds, err1 := Enumerate(gp, gt, Options{Variant: VariantRIDS}, RunOptions{})
		fc, err2 := Enumerate(gp, gt, Options{Variant: VariantRIDSSIFC}, RunOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		return ds.Matches == fc.Matches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedReuse(t *testing.T) {
	gp, gt := trianglePair()
	p, err := Prepare(gp, gt, Options{Variant: VariantRIDS})
	if err != nil {
		t.Fatal(err)
	}
	r1 := p.Run(RunOptions{})
	r2 := p.Run(RunOptions{})
	if r1.Matches != r2.Matches || r1.States != r2.States {
		t.Fatalf("re-running a Prepared instance differs: %+v vs %+v", r1, r2)
	}
}

func BenchmarkSequentialRI(b *testing.B) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes:  60,
		TargetEdges:  400,
		PatternNodes: 6,
		Extract:      true,
	})
	p, err := Prepare(gp, gt, Options{Variant: VariantRI})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(RunOptions{})
	}
}

func BenchmarkSequentialRIDSSIFC(b *testing.B) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes:  60,
		TargetEdges:  400,
		PatternNodes: 6,
		Extract:      true,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(gp, gt, Options{Variant: VariantRIDSSIFC}, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDenseCold prices the search of a dense-cold query,
// the part internal/domain's BenchmarkComputeDenseCold leaves out. It
// runs the same queries: the dense-cold serving workload's collection,
// PPIS32 at scale 0.1, seed 20170525, 150 patterns, those of at most 64
// nodes, under iso and induced. Each is prepared once as RI-DS-SI-FC on
// its target's shared Index, warmed first, and kept when its warm-up run
// completes within 2,000,000 states (the serving workload's cap). The
// warm-up stops at cap+1 matches, since a run with more matches than
// the cap has more states too, and a 2 s deadline guards it. One op is
// one query's Prepared.Run; states/op reports the search work behind
// it.
func BenchmarkSearchDenseCold(b *testing.B) {
	const stateCap = 2_000_000
	coll, err := datasets.ByName("PPIS32", datasets.Config{Scale: 0.1, Seed: 20170525, NumPatterns: 150})
	if err != nil {
		b.Fatal(err)
	}
	ixs := make([]*domain.Index, len(coll.Targets))
	arenas := make([]*Arena, len(coll.Targets))
	for i, gt := range coll.Targets {
		ixs[i] = domain.NewIndex(gt)
		ixs[i].Rows(gt)
		arenas[i] = NewArena(gt.NumNodes())
	}
	type query struct {
		p     *Prepared
		arena *Arena
	}
	var qs []query
	for _, pat := range coll.Patterns {
		if pat.Graph.NumNodes() > 64 {
			continue
		}
		gt := coll.Targets[pat.TargetIndex]
		for _, sem := range []graph.Semantics{graph.SubgraphIso, graph.InducedIso} {
			p, err := Prepare(pat.Graph, gt, Options{Variant: VariantRIDSSIFC, Semantics: sem, TargetIndex: ixs[pat.TargetIndex]})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			res := p.Run(RunOptions{Ctx: ctx, Limit: stateCap + 1})
			cancel()
			if !res.Aborted && res.States <= stateCap {
				qs = append(qs, query{p, arenas[pat.TargetIndex]})
			}
		}
	}
	var states int64
	ops := 0
	b.ReportAllocs()
	for ; b.Loop(); ops++ {
		q := qs[ops%len(qs)]
		states += q.p.Run(RunOptions{Arena: q.arena}).States
	}
	b.ReportMetric(float64(states)/float64(ops), "states/op")
}

// TestMatchTimeRecorded guards against the named-return/defer pitfall
// that once reported zero match times.
func TestMatchTimeRecorded(t *testing.T) {
	gp, gt := testutil.RandomInstance(17, testutil.InstanceOptions{
		TargetNodes: 80, TargetEdges: 600, PatternNodes: 6, Extract: true,
	})
	res, err := Enumerate(gp, gt, Options{Variant: VariantRI}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchTime <= 0 {
		t.Fatalf("MatchTime not recorded: %v", res.MatchTime)
	}
}

func TestSelfLoops(t *testing.T) {
	// Pattern: one node with a self-loop pointing into a second node.
	bp := &graph.Builder{}
	bp.AddNodes(2)
	bp.AddEdge(0, 0, 3)
	bp.AddEdge(0, 1, 0)
	gp := bp.MustBuild()

	// Target: node 0 has the labeled self-loop, node 2 has a wrongly
	// labeled one, node 3 has none.
	bt := &graph.Builder{}
	bt.AddNodes(4)
	bt.AddEdge(0, 0, 3)
	bt.AddEdge(0, 1, 0)
	bt.AddEdge(2, 2, 9)
	bt.AddEdge(2, 1, 0)
	bt.AddEdge(3, 1, 0)
	gt := bt.MustBuild()

	want := testutil.BruteCount(gp, gt)
	if want != 1 {
		t.Fatalf("brute force self-loop count = %d, want 1", want)
	}
	for _, v := range allVariants {
		if res := mustEnumerate(t, gp, gt, v, RunOptions{}); res.Matches != want {
			t.Errorf("%v: self-loop matches = %d, want %d", v, res.Matches, want)
		}
	}
}

// TestQuickSelfLoopInstances cross-validates on random instances that
// include self-loops, which the default generators avoid.
func TestQuickSelfLoopInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nt := 6 + rng.Intn(6)
		bt := &graph.Builder{}
		for i := 0; i < nt; i++ {
			bt.AddNode(graph.Label(rng.Intn(2)))
		}
		for i := 0; i < 3*nt; i++ {
			bt.AddEdge(int32(rng.Intn(nt)), int32(rng.Intn(nt)), graph.Label(rng.Intn(2)))
		}
		gt := bt.MustBuild()

		np := 2 + rng.Intn(3)
		bp := &graph.Builder{}
		for i := 0; i < np; i++ {
			bp.AddNode(graph.Label(rng.Intn(2)))
		}
		for i := 1; i < np; i++ {
			bp.AddEdge(int32(rng.Intn(i)), int32(i), graph.Label(rng.Intn(2)))
		}
		// Sprinkle self-loops.
		for i := 0; i < np; i++ {
			if rng.Intn(2) == 0 {
				bp.AddEdge(int32(i), int32(i), graph.Label(rng.Intn(2)))
			}
		}
		gp := bp.MustBuild()

		want := testutil.BruteCount(gp, gt)
		for _, v := range allVariants {
			res, err := Enumerate(gp, gt, Options{Variant: v}, RunOptions{})
			if err != nil || res.Matches != want {
				t.Logf("seed=%d variant=%v got=%d want=%d", seed, v, res.Matches, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedTriangleVsPath(t *testing.T) {
	// Pattern path 0→1→2. Target triangle: non-induced finds 3 rotations,
	// induced finds none (the extra closing edge violates a non-edge).
	bp := &graph.Builder{}
	bp.AddNodes(3)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(1, 2, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	bt.AddEdge(0, 1, 0)
	bt.AddEdge(1, 2, 0)
	bt.AddEdge(2, 0, 0)
	gt := bt.MustBuild()
	for _, v := range allVariants {
		nonInd, err := Enumerate(gp, gt, Options{Variant: v}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ind, err := Enumerate(gp, gt, Options{Variant: v, Semantics: graph.InducedIso}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if nonInd.Matches != 3 || ind.Matches != 0 {
			t.Errorf("%v: non-induced=%d (want 3), induced=%d (want 0)", v, nonInd.Matches, ind.Matches)
		}
	}
}

func TestInducedSelfLoopExcluded(t *testing.T) {
	// Pattern: single node, no self-loop. Target: one plain node, one
	// node with a self-loop. Induced excludes the looped node.
	bp := &graph.Builder{}
	bp.AddNodes(1)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(2)
	bt.AddEdge(1, 1, 0)
	gt := bt.MustBuild()
	res, err := Enumerate(gp, gt, Options{Variant: VariantRI, Semantics: graph.InducedIso}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 1 {
		t.Fatalf("induced matches = %d, want 1", res.Matches)
	}
}

// TestQuickInducedAgreesWithBruteForce cross-validates induced mode,
// sequentially and in parallel, on random instances.
func TestQuickInducedAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64, nasty bool) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  9,
			TargetEdges:  30,
			PatternNodes: 4,
			Nasty:        nasty,
		})
		want := testutil.BruteCountInduced(gp, gt)
		for _, v := range allVariants {
			res, err := Enumerate(gp, gt, Options{Variant: v, Semantics: graph.InducedIso}, RunOptions{})
			if err != nil || res.Matches != want {
				t.Logf("seed=%d nasty=%v variant=%v got=%d want=%d", seed, nasty, v, res.Matches, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestInducedSubsetOfNonInduced: induced matches are a subset.
func TestQuickInducedSubset(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 12, TargetEdges: 40, PatternNodes: 4, Extract: true,
		})
		ind, err1 := Enumerate(gp, gt, Options{Variant: VariantRIDS, Semantics: graph.InducedIso}, RunOptions{})
		non, err2 := Enumerate(gp, gt, Options{Variant: VariantRIDS}, RunOptions{})
		return err1 == nil && err2 == nil && ind.Matches <= non.Matches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthStatesProfile(t *testing.T) {
	gp, gt := trianglePair()
	res := mustEnumerate(t, gp, gt, VariantRI, RunOptions{})
	if len(res.DepthStates) != 3 {
		t.Fatalf("DepthStates length = %d, want 3", len(res.DepthStates))
	}
	var sum int64
	for _, c := range res.DepthStates {
		sum += c
	}
	if sum != res.States {
		t.Fatalf("depth profile sums to %d, States = %d", sum, res.States)
	}
	if res.DepthStates[0] != int64(gt.NumNodes()) {
		t.Errorf("root depth visited %d states, want %d (all target nodes)", res.DepthStates[0], gt.NumNodes())
	}
}

// TestOrderStrategyCorrectness: the ordering strategy changes the search
// space, never the result.
func TestOrderStrategyCorrectness(t *testing.T) {
	gp, gt := testutil.RandomInstance(31, testutil.InstanceOptions{
		TargetNodes: 30, TargetEdges: 150, PatternNodes: 5, Extract: true,
	})
	gcf, err := Enumerate(gp, gt, Options{Variant: VariantRI}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Enumerate(gp, gt, Options{Variant: VariantRI, OrderStrategy: order.DegreeOnly}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gcf.Matches != deg.Matches {
		t.Fatalf("orderings disagree: GCF %d vs degree-only %d", gcf.Matches, deg.Matches)
	}
}

// TestQuickHomomorphismAgreesWithBruteForce cross-validates the
// non-injective semantics against the oracle for every variant: the
// used-set, degree pruning and forward checking must all be disabled
// consistently or counts drift.
func TestQuickHomomorphismAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64, nasty bool) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  8,
			TargetEdges:  22,
			PatternNodes: 4,
			Nasty:        nasty,
		})
		want := testutil.BruteCountSem(gp, gt, graph.Homomorphism)
		for _, v := range allVariants {
			res, err := Enumerate(gp, gt, Options{Variant: v, Semantics: graph.Homomorphism}, RunOptions{})
			if err != nil || res.Matches != want {
				t.Logf("seed=%d nasty=%v variant=%v got=%d want=%d", seed, nasty, v, res.Matches, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestHomomorphismSharedImage: homs into the single undirected edge K2
// are exactly proper 2-colorings, so the odd cycle C3 has none and the
// even cycle C4 has two.
func TestHomomorphismSharedImage(t *testing.T) {
	edge := func() *graph.Graph {
		b := &graph.Builder{}
		b.AddNodes(2)
		b.AddEdge(0, 1, 0)
		b.AddEdge(1, 0, 0)
		return b.MustBuild()
	}
	cycle := func(n int) *graph.Graph {
		b := &graph.Builder{}
		b.AddNodes(n)
		for i := 0; i < n; i++ {
			b.AddEdge(int32(i), int32((i+1)%n), 0)
			b.AddEdge(int32((i+1)%n), int32(i), 0)
		}
		return b.MustBuild()
	}
	res, err := Enumerate(cycle(3), edge(), Options{Semantics: graph.Homomorphism}, RunOptions{})
	if err != nil || res.Matches != 0 {
		t.Fatalf("C3 -> K2 homs = %d, %v; want 0 (odd cycle)", res.Matches, err)
	}
	res, err = Enumerate(cycle(4), edge(), Options{Semantics: graph.Homomorphism}, RunOptions{})
	if err != nil || res.Matches != 2 {
		t.Fatalf("C4 -> K2 homs = %d, %v; want 2 (proper 2-colorings)", res.Matches, err)
	}
}
