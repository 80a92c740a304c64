package parsge

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"parsge/internal/domain"
	"parsge/internal/testutil"
)

// randomUpdateTarget builds a random labeled target. When undirected is
// set, every edge is added in both directions (the usual undirected
// encoding).
func randomUpdateTarget(rng *rand.Rand, undirected bool) *Graph {
	n := 2 + rng.Intn(8)
	b := NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		b.AddNode(Label(rng.Intn(3)))
	}
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		l := Label(rng.Intn(3))
		if undirected {
			b.AddEdgeBoth(u, v, l)
		} else {
			b.AddEdge(u, v, l)
		}
	}
	return b.MustBuild()
}

// randomUpdateBatch mixes adds, removes of existing arcs (so removals
// are not mostly no-ops), removes of random (often absent) arcs, and
// exact duplicates. Undirected targets get both directions per update.
func randomUpdateBatch(rng *rand.Rand, g *Graph, undirected bool) []EdgeUpdate {
	n := int32(g.NumNodes())
	edges := g.Edges()
	k := 1 + rng.Intn(6)
	var ups []EdgeUpdate
	add := func(u EdgeUpdate) {
		ups = append(ups, u)
		if undirected && u.From != u.To {
			ups = append(ups, EdgeUpdate{From: u.To, To: u.From, Label: u.Label, Remove: u.Remove})
		}
	}
	for i := 0; i < k; i++ {
		switch c := rng.Intn(4); {
		case c == 0 && len(edges) > 0: // remove an existing arc
			e := edges[rng.Intn(len(edges))]
			add(EdgeUpdate{From: e.From, To: e.To, Label: e.Label, Remove: true})
		case c == 1: // remove a random (likely absent) arc: no-op fodder
			add(EdgeUpdate{From: rng.Int31n(n), To: rng.Int31n(n), Label: Label(rng.Intn(3)), Remove: true})
		case c == 2 && len(ups) > 0: // duplicate an earlier update verbatim
			ups = append(ups, ups[rng.Intn(len(ups))])
		default: // add
			add(EdgeUpdate{From: rng.Int31n(n), To: rng.Int31n(n), Label: Label(rng.Intn(3))})
		}
	}
	return ups
}

// applyOracle maintains the brute-force edge-multiset oracle: the edge
// list updated naively, update by update.
func applyOracle(edges []Edge, ups []EdgeUpdate) []Edge {
	out := append([]Edge(nil), edges...)
	for _, u := range ups {
		e := Edge{From: u.From, To: u.To, Label: u.Label}
		if !u.Remove {
			out = append(out, e)
			continue
		}
		for i, ex := range out {
			if ex == e {
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				break
			}
		}
	}
	return out
}

func graphFromEdges(t *testing.T, labels []Label, edges []Edge) *Graph {
	t.Helper()
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.Label)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func nodeLabels(g *Graph) []Label {
	labels := make([]Label, g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		labels[v] = g.NodeLabel(v)
	}
	return labels
}

func sortedEdges(g *Graph) []Edge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return es
}

// TestApplyUpdatesDifferential is the headline battery of the mutable-
// target API (ISSUE 7 satellite 1): across 120 random update sequences
// (60 directed, 60 undirected; each a chain of batches mixing adds,
// removes, no-ops and duplicates), after every batch the incrementally-
// maintained target — graph edge multiset, domain.Index with its NLF
// signatures and label buckets, cached TargetStats down to the float
// bits — must equal a from-scratch NewTarget rebuild.
func TestApplyUpdatesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, undirected := range []bool{false, true} {
		for trial := 0; trial < 60; trial++ {
			g := randomUpdateTarget(rng, undirected)
			tgt, err := NewTarget(g, TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Materialize the bitset rows so every batch below goes
			// through the incremental touched-row Rebuild, which the
			// IndexEqual comparison then pins against a clean build.
			tgt.state.Load().index.Rows(tgt.Graph())
			oracle := g.Edges()
			labels := nodeLabels(g)
			wantEpoch := uint64(0)
			for batch := 0; batch < 4; batch++ {
				ups := randomUpdateBatch(rng, tgt.Graph(), undirected)
				before := sortedEdges(tgt.Graph())
				upRes, err := tgt.ApplyUpdates(context.Background(), ups)
				if err != nil {
					t.Fatal(err)
				}
				oracle = applyOracle(oracle, ups)
				og := graphFromEdges(t, labels, oracle)

				// Graph: same edge multiset as the naive oracle.
				got, want := sortedEdges(tgt.Graph()), sortedEdges(og)
				if len(got) != len(want) {
					t.Fatalf("undirected=%v trial %d batch %d: %d edges, oracle %d", undirected, trial, batch, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("undirected=%v trial %d batch %d: edge %d = %v, oracle %v", undirected, trial, batch, i, got[i], want[i])
					}
				}

				// Epoch: bumps exactly when the edge multiset moved.
				changed := len(before) != len(got)
				for i := 0; !changed && i < len(got); i++ {
					changed = before[i] != got[i]
				}
				if changed {
					wantEpoch++
				}
				if upRes.Epoch != wantEpoch || tgt.Epoch() != wantEpoch {
					t.Fatalf("undirected=%v trial %d batch %d: epoch %d/%d, want %d (changed=%v)",
						undirected, trial, batch, upRes.Epoch, tgt.Epoch(), wantEpoch, changed)
				}

				// Index: bit-identical to a from-scratch rebuild —
				// signatures, label buckets, stats floats and all.
				rebuilt, err := NewTarget(og, TargetOptions{})
				if err != nil {
					t.Fatal(err)
				}
				si, sr := tgt.state.Load(), rebuilt.state.Load()
				sr.index.Rows(rebuilt.Graph())
				if ok, diff := domain.IndexEqual(si.index, sr.index); !ok {
					t.Fatalf("undirected=%v trial %d batch %d: incremental index differs from rebuild: %s", undirected, trial, batch, diff)
				}
				if si.meanDegree != sr.meanDegree || si.autoAlgorithm != sr.autoAlgorithm {
					t.Fatalf("undirected=%v trial %d batch %d: snapshot stats drifted: mean %v vs %v, auto %v vs %v",
						undirected, trial, batch, si.meanDegree, sr.meanDegree, si.autoAlgorithm, sr.autoAlgorithm)
				}
			}
		}
	}
}

// TestMetamorphicUpdates (ISSUE 7 satellite 2): for random pattern/
// target pairs, Enumerate after ApplyUpdates(batch) must equal
// Enumerate on a from-scratch rebuild of the updated graph — for all
// three semantics across the RI-family sequential engine, the parallel
// steal pool, VF2 and LAD — and both must equal the brute-force oracle.
func TestMetamorphicUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	engines := []struct {
		name string
		opts Options
	}{
		{"ri", Options{Algorithm: RIDSSIFC, Workers: 1}},
		{"ri/bitset", Options{Algorithm: RIDSSIFC, Workers: 1, filters: domain.Filters{Kernel: domain.KernelBitset}}},
		{"ri/slice", Options{Algorithm: RIDSSIFC, Workers: 1, filters: domain.Filters{Kernel: domain.KernelSlice}}},
		{"steal", Options{Algorithm: RIDSSIFC, Workers: 4}},
		{"steal/bitset", Options{Algorithm: RIDSSIFC, Workers: 4, filters: domain.Filters{Kernel: domain.KernelBitset}}},
		{"vf2", Options{Algorithm: VF2}},
		{"vf2/slice", Options{Algorithm: VF2, filters: domain.Filters{Kernel: domain.KernelSlice}}},
		{"lad", Options{Algorithm: LAD}},
		{"lad/slice", Options{Algorithm: LAD, filters: domain.Filters{Kernel: domain.KernelSlice}}},
	}
	for trial := 0; trial < 30; trial++ {
		g := randomUpdateTarget(rng, trial%2 == 0)
		tgt, err := NewTarget(g, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Force the bitset rows up front so every batch exercises the
		// incremental Rebuild; after each batch they must be bit-identical
		// to rows built from scratch on the same logical graph.
		tgt.state.Load().index.Rows(tgt.Graph())
		oracle := g.Edges()
		labels := nodeLabels(g)
		for batch := 0; batch < 3; batch++ {
			ups := randomUpdateBatch(rng, tgt.Graph(), false)
			if _, err := tgt.ApplyUpdates(context.Background(), ups); err != nil {
				t.Fatal(err)
			}
			oracle = applyOracle(oracle, ups)
			scratch, err := NewTarget(graphFromEdges(t, labels, oracle), TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			scratch.state.Load().index.Rows(scratch.Graph())
			if ok, diff := domain.IndexEqual(tgt.state.Load().index, scratch.state.Load().index); !ok {
				t.Fatalf("trial %d batch %d: incremental rows differ from rebuild: %s", trial, batch, diff)
			}
		}
		og := graphFromEdges(t, labels, oracle)
		rebuilt, err := NewTarget(og, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pattern := testutil.ExtractPattern(rng, og, 2+rng.Intn(3))
		for _, sem := range []Semantics{SubgraphIso, InducedIso, Homomorphism} {
			want := testutil.BruteCountSem(pattern, og, sem)
			for _, eng := range engines {
				opts := eng.opts
				opts.Semantics = sem
				inc, err := tgt.Count(context.Background(), pattern, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%v on updated target: %v", trial, eng.name, sem, err)
				}
				reb, err := rebuilt.Count(context.Background(), pattern, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%v on rebuilt target: %v", trial, eng.name, sem, err)
				}
				if inc != reb || inc != want {
					t.Fatalf("trial %d %s under %v: updated=%d rebuilt=%d oracle=%d\npattern=%v\ntarget=%v",
						trial, eng.name, sem, inc, reb, want, pattern.Edges(), og.Edges())
				}
			}
		}
	}
}

// TestApplyUpdatesEpochs pins the epoch contract: 0 at NewTarget, +1
// per effective batch, unchanged by no-op batches, stamped into every
// Result and CensusResult, and frozen by pre-commit ctx cancellation.
func TestApplyUpdatesEpochs(t *testing.T) {
	b := NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.AddNode(Label(i % 2))
	}
	b.AddEdgeBoth(0, 1, 0)
	b.AddEdgeBoth(1, 2, 0)
	g := b.MustBuild()
	tgt, err := NewTarget(g, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Epoch() != 0 {
		t.Fatalf("fresh target epoch %d", tgt.Epoch())
	}
	pat := NewBuilder(2, 2)
	pat.AddNode(0)
	pat.AddNode(1)
	pat.AddEdgeBoth(0, 1, 0)
	pattern := pat.MustBuild()

	res, err := tgt.Enumerate(context.Background(), pattern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 0 {
		t.Fatalf("pre-update result epoch %d", res.Epoch)
	}

	// No-op batch: absent-arc removal. Epoch must not move.
	up, err := tgt.ApplyUpdates(context.Background(), []EdgeUpdate{{From: 3, To: 3, Label: 7, Remove: true}})
	if err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 0 || up.NoOps != 1 || up.Applied != 0 || tgt.Epoch() != 0 {
		t.Fatalf("no-op batch: %+v, epoch now %d", up, tgt.Epoch())
	}

	// Effective batch.
	up, err = tgt.ApplyUpdates(context.Background(), []EdgeUpdate{{From: 2, To: 3, Label: 0}, {From: 3, To: 2, Label: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if up.Epoch != 1 || up.Applied != 2 || up.TouchedVertices != 2 {
		t.Fatalf("effective batch: %+v", up)
	}
	res, err = tgt.Enumerate(context.Background(), pattern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("post-update result epoch %d", res.Epoch)
	}
	cres, err := tgt.Census(context.Background(), CensusOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Epoch != 1 {
		t.Fatalf("census epoch %d", cres.Epoch)
	}

	// Cancelled context: the batch is discarded wholesale.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tgt.ApplyUpdates(ctx, []EdgeUpdate{{From: 0, To: 3, Label: 1}}); err == nil {
		t.Fatal("cancelled update did not error")
	}
	if tgt.Epoch() != 1 || tgt.Graph().HasEdgeLabeled(0, 3, 1) {
		t.Fatal("cancelled update committed state")
	}

	// Invalid endpoint: batch rejected atomically.
	if _, err := tgt.ApplyUpdates(context.Background(), []EdgeUpdate{{From: 0, To: 1, Label: 1}, {From: 0, To: 99, Label: 0}}); err == nil {
		t.Fatal("out-of-range update did not error")
	}
	if tgt.Epoch() != 1 || tgt.Graph().HasEdgeLabeled(0, 1, 1) {
		t.Fatal("failed batch leaked state")
	}
}

// TestReleaseEnsureIndex covers the Router's LRU eviction primitive: a
// released index keeps the target correct (index-free preprocessing)
// and EnsureIndex restores a bit-identical index without moving the
// epoch.
func TestReleaseEnsureIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomUpdateTarget(rng, true)
	tgt, err := NewTarget(g, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pattern := testutil.ExtractPattern(rng, g, 3)
	want := testutil.BruteCountSem(pattern, g, SubgraphIso)

	if !tgt.HasIndex() {
		t.Fatal("fresh target lacks an index")
	}
	if !tgt.ReleaseIndex() {
		t.Fatal("ReleaseIndex returned false with an index present")
	}
	if tgt.HasIndex() || tgt.ReleaseIndex() {
		t.Fatal("double release")
	}
	if tgt.Epoch() != 0 {
		t.Fatal("ReleaseIndex moved the epoch")
	}
	got, err := tgt.Count(context.Background(), pattern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("index-free count %d, want %d", got, want)
	}
	if !tgt.EnsureIndex() || !tgt.HasIndex() {
		t.Fatal("EnsureIndex did not rebuild")
	}
	if tgt.EnsureIndex() {
		t.Fatal("EnsureIndex rebuilt twice")
	}
	ref, err := NewTarget(tgt.Graph(), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := domain.IndexEqual(tgt.state.Load().index, ref.state.Load().index); !ok {
		t.Fatalf("EnsureIndex index differs from fresh build: %s", diff)
	}
	// Updates applied while the index is released: the next EnsureIndex
	// must reflect the updated graph.
	tgt.ReleaseIndex()
	if _, err := tgt.ApplyUpdates(context.Background(), []EdgeUpdate{{From: 0, To: 1, Label: 2}}); err != nil {
		t.Fatal(err)
	}
	tgt.EnsureIndex()
	ref, err = NewTarget(tgt.Graph(), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := domain.IndexEqual(tgt.state.Load().index, ref.state.Load().index); !ok {
		t.Fatalf("post-update EnsureIndex differs from fresh build: %s", diff)
	}
}

// TestPlanHistogramBounded: plan buckets are keyed by plan alone, so a
// target that takes an update before every query keeps one bucket per
// plan however far its epoch advances (a bucket per epoch and plan grew
// the histogram, and /stats, by one entry per update).
func TestPlanHistogramBounded(t *testing.T) {
	b := NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.AddNode(Label(i % 2))
	}
	b.AddEdgeBoth(0, 1, 0)
	b.AddEdgeBoth(1, 2, 0)
	tgt, err := NewTarget(b.MustBuild(), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pat := NewBuilder(2, 2)
	pat.AddNode(0)
	pat.AddNode(1)
	pat.AddEdgeBoth(0, 1, 0)
	pattern := pat.MustBuild()

	const cycles = 2000
	ctx := context.Background()
	plans := make(map[string]bool)
	for i := 0; i < cycles; i++ {
		up := EdgeUpdate{From: 2, To: 3, Label: 0, Remove: i%2 == 1}
		if _, err := tgt.ApplyUpdates(ctx, []EdgeUpdate{up}); err != nil {
			t.Fatal(err)
		}
		res, err := tgt.Enumerate(ctx, pattern, Options{Algorithm: RIDSSIFC})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil {
			t.Fatal("expected a plan")
		}
		plans[res.Plan.String()] = true
	}
	if got := tgt.Epoch(); got != cycles {
		t.Fatalf("epoch %d after %d effective updates", got, cycles)
	}
	h := tgt.Stats().Plans
	if h.Planned != cycles {
		t.Fatalf("Planned = %d, want %d", h.Planned, cycles)
	}
	if len(h.Buckets) != len(plans) {
		t.Fatalf("%d buckets for %d distinct plans", len(h.Buckets), len(plans))
	}
	var sum int64
	for plan := range plans {
		sum += h.Bucket(plan).Count
	}
	if sum != cycles {
		t.Fatalf("plan buckets count %d queries, want %d", sum, cycles)
	}
}
