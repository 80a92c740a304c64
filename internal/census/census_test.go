package census

import (
	"context"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"parsge/internal/datasets"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// classMap flattens a Result to encoding → count for oracle comparison.
func classMap(res Result) map[string]int64 {
	m := make(map[string]int64, len(res.Classes))
	for _, c := range res.Classes {
		m[string(c.Encoding)] = c.Count
	}
	return m
}

func checkAgainstOracle(t *testing.T, g *graph.Graph, k int, res Result, label string) {
	t.Helper()
	total, classes := testutil.BruteCensus(g, k)
	if res.Aborted {
		t.Fatalf("%s: k=%d aborted without cancellation", label, k)
	}
	if res.Subgraphs != total {
		t.Fatalf("%s: k=%d subgraphs=%d, oracle %d", label, k, res.Subgraphs, total)
	}
	got := classMap(res)
	if len(got) != len(classes) {
		t.Fatalf("%s: k=%d classes=%d, oracle %d", label, k, len(got), len(classes))
	}
	for enc, want := range classes {
		if got[enc] != want {
			t.Fatalf("%s: k=%d class count %d, oracle %d", label, k, got[enc], want)
		}
	}
}

// TestCensusSmallFixtures pins golden counts on graphs whose censuses
// are computable by hand: a triangle, a path, a star and a directed
// cycle.
func TestCensusSmallFixtures(t *testing.T) {
	triangle := func() *graph.Graph {
		b := graph.NewBuilder(3, 6)
		for i := 0; i < 3; i++ {
			b.AddNode(0)
		}
		b.AddEdgeBoth(0, 1, 0)
		b.AddEdgeBoth(1, 2, 0)
		b.AddEdgeBoth(0, 2, 0)
		return b.MustBuild()
	}()
	path4 := func() *graph.Graph { // P4: 0-1-2-3
		b := graph.NewBuilder(4, 6)
		for i := 0; i < 4; i++ {
			b.AddNode(0)
		}
		b.AddEdgeBoth(0, 1, 0)
		b.AddEdgeBoth(1, 2, 0)
		b.AddEdgeBoth(2, 3, 0)
		return b.MustBuild()
	}()
	star5 := func() *graph.Graph { // K1,4: center 0
		b := graph.NewBuilder(5, 8)
		for i := 0; i < 5; i++ {
			b.AddNode(0)
		}
		for i := int32(1); i < 5; i++ {
			b.AddEdgeBoth(0, i, 0)
		}
		return b.MustBuild()
	}()
	cycle5 := func() *graph.Graph { // directed 5-cycle
		b := graph.NewBuilder(5, 5)
		for i := 0; i < 5; i++ {
			b.AddNode(0)
		}
		for i := int32(0); i < 5; i++ {
			b.AddEdge(i, (i+1)%5, 0)
		}
		return b.MustBuild()
	}()

	cases := []struct {
		name      string
		g         *graph.Graph
		k         int
		subgraphs int64
		classes   int
	}{
		{"triangle k=2", triangle, 2, 3, 1},
		{"triangle k=3", triangle, 3, 1, 1},
		{"path4 k=2", path4, 2, 3, 1},
		{"path4 k=3", path4, 3, 2, 1}, // two sub-paths
		{"path4 k=4", path4, 4, 1, 1}, // the path itself
		{"star5 k=3", star5, 3, 6, 1}, // C(4,2) cherries
		{"star5 k=5", star5, 5, 1, 1}, // the star itself
		{"star5 k=4", star5, 4, 4, 1}, // C(4,3) claws
		{"cycle5 k=3", cycle5, 3, 5, 1},
		{"cycle5 k=5", cycle5, 5, 1, 1},
	}
	for _, tc := range cases {
		res, err := Run(context.Background(), tc.g, Options{K: tc.k})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Subgraphs != tc.subgraphs || len(res.Classes) != tc.classes {
			t.Errorf("%s: got %d subgraphs in %d classes, want %d in %d",
				tc.name, res.Subgraphs, len(res.Classes), tc.subgraphs, tc.classes)
		}
		checkAgainstOracle(t, tc.g, tc.k, res, tc.name)
	}
}

// TestCensusMixedMotifs: a graph with both a triangle and a path motif
// must report two k=3 classes with the right counts, and the
// representatives must canonize back to their own encodings.
func TestCensusMixedMotifs(t *testing.T) {
	// Triangle 0-1-2 plus a tail 2-3-4: k=3 census has 1 triangle and
	// 3 paths (1-2-3, 2-3-4, 0-2-3).
	b := graph.NewBuilder(5, 10)
	for i := 0; i < 5; i++ {
		b.AddNode(0)
	}
	b.AddEdgeBoth(0, 1, 0)
	b.AddEdgeBoth(1, 2, 0)
	b.AddEdgeBoth(0, 2, 0)
	b.AddEdgeBoth(2, 3, 0)
	b.AddEdgeBoth(3, 4, 0)
	g := b.MustBuild()

	res, err := Run(context.Background(), g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs != 4 || len(res.Classes) != 2 {
		t.Fatalf("got %d subgraphs in %d classes, want 4 in 2", res.Subgraphs, len(res.Classes))
	}
	// Classes are sorted by descending count: paths (3) before the
	// triangle (1).
	if res.Classes[0].Count != 3 || res.Classes[1].Count != 1 {
		t.Fatalf("class counts %d, %d; want 3, 1", res.Classes[0].Count, res.Classes[1].Count)
	}
	for _, c := range res.Classes {
		enc, _ := graph.CanonicalForm(c.Rep)
		if string(enc) != string(c.Encoding) {
			t.Fatal("representative does not canonize to its class encoding")
		}
		if h := graph.HashBytes(c.Encoding); h != c.Hash {
			t.Fatalf("class hash %d != HashBytes(encoding) %d", c.Hash, h)
		}
	}
	if res.Classes[1].Rep.NumEdges() != 6 { // the undirected triangle: 6 arcs
		t.Fatalf("triangle representative has %d arcs, want 6", res.Classes[1].Rep.NumEdges())
	}
}

// TestCensusRandomOracle cross-checks sequential and parallel runs
// against the brute-force oracle on random directed graphs, nasty
// instances (self-loops, parallel edges) included.
func TestCensusRandomOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		opts := testutil.InstanceOptions{TargetNodes: 11, TargetEdges: 26, NodeLabels: 2, EdgeLabels: 2, Nasty: seed%3 == 0}
		_, g := testutil.RandomInstance(seed, opts)
		for _, k := range []int{3, 4} {
			seq, err := Run(context.Background(), g, Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, g, k, seq, "seq")
			par, err := Run(context.Background(), g, Options{K: k, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, g, k, par, "par")
			if len(par.PerWorkerSubgraphs) != 4 {
				t.Fatalf("PerWorkerSubgraphs has %d entries, want 4", len(par.PerWorkerSubgraphs))
			}
			var sum int64
			for _, c := range par.PerWorkerSubgraphs {
				sum += c
			}
			if sum != par.Subgraphs {
				t.Fatalf("per-worker sum %d != total %d", sum, par.Subgraphs)
			}
		}
	}
}

// TestCensusSparseAllocation: the walker extends from neighbor lists,
// so a census allocates in proportion to the graph's edges and k, not
// to n². A k=3 census of a 4096-node cycle finds its 4096 paths within
// 1 MiB of allocation; n²-bit adjacency rows alone would be 2 MiB.
func TestCensusSparseAllocation(t *testing.T) {
	const n = 4096
	b := graph.NewBuilder(n, 2*n)
	b.AddNodes(n)
	for v := int32(0); v < n; v++ {
		b.AddEdgeBoth(v, (v+1)%n, 0)
	}
	g := b.MustBuild()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), g, Options{K: 3})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs != n || len(res.Classes) != 1 {
		t.Fatalf("cycle census: %d subgraphs in %d classes, want %d in 1", res.Subgraphs, len(res.Classes), n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("k=3 census of a %d-node cycle allocated %d bytes, want < 1 MiB", n, alloc)
	}
}

// TestCensusMemoReuse: on a label-free graph every k-subgraph of one
// shape shares a discovery-order key, so the memo must hit far more
// often than it misses — that is the whole point of the memo. The
// random graph repeats some edges (parallel arcs); the second input,
// drawn without repeats, is a plain undirected graph.
func TestCensusMemoReuse(t *testing.T) {
	for _, simple := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		b := graph.NewBuilder(30, 120)
		for i := 0; i < 30; i++ {
			b.AddNode(0)
		}
		for e := 0; e < 120; e++ {
			u, v := int32(rng.Intn(30)), int32(rng.Intn(30))
			if u != v && !(simple && b.HasEdgePending(u, v)) {
				b.AddEdgeBoth(u, v, 0)
			}
		}
		g := b.MustBuild()
		res, err := Run(context.Background(), g, Options{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Subgraphs == 0 {
			t.Fatal("no subgraphs found")
		}
		if res.MemoHits+res.MemoMisses != res.Subgraphs {
			t.Fatalf("memo lookups %d != subgraphs %d", res.MemoHits+res.MemoMisses, res.Subgraphs)
		}
		if res.MemoHits < res.MemoMisses {
			t.Fatalf("memo hits %d < misses %d on a label-free graph", res.MemoHits, res.MemoMisses)
		}
	}
}

// TestCensusCancellation: a cancelled context must abort the run
// promptly with Aborted set, sequentially and in parallel.
func TestCensusCancellation(t *testing.T) {
	_, g := testutil.RandomInstance(7, testutil.InstanceOptions{TargetNodes: 60, TargetEdges: 600, NodeLabels: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := Run(ctx, g, Options{K: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Aborted {
			t.Fatalf("workers=%d: cancelled census not reported Aborted", workers)
		}
	}
}

// TestCensusValidation: bad K and nil graphs are rejected.
func TestCensusValidation(t *testing.T) {
	g := graph.NewBuilder(3, 0)
	g.AddNodes(3)
	built := g.MustBuild()
	for _, k := range []int{-1, 0, 1, 7} {
		if _, err := Run(context.Background(), built, Options{K: k}); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	if _, err := Run(context.Background(), nil, Options{K: 3}); err == nil {
		t.Error("nil graph accepted")
	}
}

// TestCensusTinyTarget: a target smaller than K yields an empty census,
// not an error.
func TestCensusTinyTarget(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddNodes(2)
	b.AddEdgeBoth(0, 1, 0)
	res, err := Run(context.Background(), b.MustBuild(), Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraphs != 0 || len(res.Classes) != 0 {
		t.Fatalf("census of 2-node target at k=4: %d subgraphs", res.Subgraphs)
	}
}

// TestCensusMemoOverflow: with a budget so small that every memo
// overflows on its first class, concurrent runs keep replacing the
// memo under each other. Each run classifies through the one memo it
// pinned, so no class encoding appears twice in a result and every
// result equals the oracle; and Memos is left holding no memo over its
// budget.
func TestCensusMemoOverflow(t *testing.T) {
	_, g := testutil.RandomInstance(3, testutil.InstanceOptions{TargetNodes: 14, TargetEdges: 40, NodeLabels: 3, EdgeLabels: 2})
	memos := &Memos{budget: 1}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := 3 + (c+i)%2
				res, err := Run(context.Background(), g, Options{K: k, Workers: 1 + c%3, Memos: memos})
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[string]bool, len(res.Classes))
				for _, cl := range res.Classes {
					if seen[string(cl.Encoding)] {
						t.Errorf("k=%d: class encoding reported twice", k)
						return
					}
					seen[string(cl.Encoding)] = true
				}
				checkAgainstOracle(t, g, k, res, "overflowing memo")
			}
		}(c)
	}
	wg.Wait()
	for k := MinK; k <= MaxK; k++ {
		if m := memos.byK[k].Load(); m != nil && m.full() {
			t.Fatalf("k=%d: Memos retains a memo over its budget", k)
		}
	}
}

// fuzzGraph decodes fuzz bytes into a census input: k in [2, 5], one or
// three walkers, and a graph of at most 9 nodes whose node and edge
// labels span [-384, 381], with the self-loops and parallel arcs the
// byte triples happen to draw.
func fuzzGraph(data []byte) (g *graph.Graph, k, workers int) {
	if len(data) < 3 {
		return nil, 0, 0
	}
	k = MinK + int(data[0])%4
	workers = 1 + 2*int(data[1]&1)
	n := 1 + int(data[2])%9
	data = data[3:]
	label := func(b byte) graph.Label { return 3 * graph.Label(int8(b)) }
	b := graph.NewBuilder(n, len(data)/3)
	for i := 0; i < n; i++ {
		var l graph.Label
		if i < len(data) {
			l = label(data[i])
		}
		b.AddNode(l)
	}
	data = data[min(n, len(data)):]
	for len(data) >= 3 && b.NumEdges() < 48 {
		b.AddEdge(int32(data[0])%int32(n), int32(data[1])%int32(n), label(data[2]))
		data = data[3:]
	}
	return b.MustBuild(), k, workers
}

// fuzzSeed encodes one fuzzGraph input.
func fuzzSeed(k, workers int, nodes []int8, arcs ...[3]int) []byte {
	data := []byte{byte(k - MinK), byte(workers / 2), byte(len(nodes) - 1)}
	for _, l := range nodes {
		data = append(data, byte(l))
	}
	for _, a := range arcs {
		data = append(data, byte(a[0]), byte(a[1]), byte(int8(a[2])))
	}
	return data
}

// fuzzSeeds are FuzzCensus's seed corpus. The first three pack their
// keys; the last two give a 9-node graph 20 distinct edge labels, more
// arc codes than a packed key holds at k=5, so they take the wide key.
func fuzzSeeds() [][]byte {
	// ring is a 9-cycle in both directions plus two chords; label(i)
	// labels the arc pair of cycle edge i, and the chords take
	// label(9) and label(10).
	ring := func(label func(i int) (fwd, back int)) [][3]int {
		var arcs [][3]int
		for i := 0; i < 9; i++ {
			fwd, back := label(i)
			arcs = append(arcs, [3]int{i, (i + 1) % 9, fwd}, [3]int{(i + 1) % 9, i, back})
		}
		c9, _ := label(9)
		c10, _ := label(10)
		return append(arcs, [3]int{0, 4, c9}, [3]int{2, 7, c10})
	}
	many := ring(func(i int) (int, int) { return 2*i - 10, 2*i + 40 })
	return [][]byte{
		fuzzSeed(3, 1, []int8{0, 1, 0, 1, 0}, [3]int{0, 1, 0}, [3]int{1, 2, 0}, [3]int{2, 3, 1}, [3]int{3, 4, 0}, [3]int{4, 0, 0}),
		fuzzSeed(4, 3, []int8{-90, 100, -90, 100, 7, 7},
			[3]int{0, 1, 5}, [3]int{0, 1, 5}, [3]int{0, 1, -100}, [3]int{1, 1, 90},
			[3]int{1, 2, 5}, [3]int{2, 3, 0}, [3]int{3, 3, 0}, [3]int{3, 4, 5}, [3]int{4, 5, -100}, [3]int{5, 0, 5}, [3]int{2, 5, 0}),
		fuzzSeed(5, 1, []int8{0, 0, 0, 0, 0, 0, 0, 0, 0}, ring(func(int) (int, int) { return 0, 0 })...),
		fuzzSeed(5, 1, []int8{-128, -1, 0, 1, 85, 86, 127, 3, 4}, many...),
		fuzzSeed(5, 3, []int8{-128, -1, 0, 1, 85, 86, 127, 3, 4}, many...),
	}
}

// FuzzCensus holds sequential and parallel runs on small labelled
// multigraphs to the brute-force oracle, on either key form, and a
// second run through the same Memos to the first.
func FuzzCensus(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, workers := fuzzGraph(data)
		if g == nil {
			return
		}
		memos := &Memos{}
		res, err := Run(context.Background(), g, Options{K: k, Workers: workers, Memos: memos})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, g, k, res, "fuzz")
		if res.MemoHits+res.MemoMisses != res.Subgraphs {
			t.Fatalf("memo lookups %d != subgraphs %d", res.MemoHits+res.MemoMisses, res.Subgraphs)
		}
		again, err := Run(context.Background(), g, Options{K: k, Workers: workers, Memos: memos})
		if err != nil {
			t.Fatal(err)
		}
		if again.MemoMisses != 0 || !maps.Equal(classMap(again), classMap(res)) {
			t.Fatalf("rerun through the same memo: %d misses, classes equal %v",
				again.MemoMisses, maps.Equal(classMap(again), classMap(res)))
		}
	})
}

// TestFuzzCensusSeedsTakeBothKeys: FuzzCensus's seed corpus exercises
// the packed key and the wide one.
func TestFuzzCensusSeedsTakeBothKeys(t *testing.T) {
	var packed, wide int
	for _, seed := range fuzzSeeds() {
		g, k, _ := fuzzGraph(seed)
		if newMemo(k, memoBudget).adjacency(g).packed {
			packed++
		} else {
			wide++
		}
	}
	if packed == 0 || wide == 0 {
		t.Fatalf("seeds take the packed key %d times and the wide key %d times, want both", packed, wide)
	}
}

// BenchmarkCensusSparse prices one census the way the sparse-mutate
// serving workload's writer pays it: a sequential k=4 census with a warm
// class memo of the largest target of the PDBSv1 collection at scale
// 0.1, seed 20170525 (3312 nodes). One op is one census.
func BenchmarkCensusSparse(b *testing.B) {
	coll, err := datasets.ByName("PDBSv1", datasets.Config{Scale: 0.1, Seed: 20170525})
	if err != nil {
		b.Fatal(err)
	}
	g := coll.Targets[0]
	for _, gt := range coll.Targets[1:] {
		if gt.NumNodes() > g.NumNodes() {
			g = gt
		}
	}
	memos := &Memos{}
	opts := Options{K: 4, Workers: 1, Memos: memos}
	if _, err := Run(context.Background(), g, opts); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
