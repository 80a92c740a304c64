package parsge

import (
	"context"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// randomUndirected builds a random undirected graph (every edge as an
// arc pair) — the symmetric counterpart of testutil.RandomInstance's
// directed targets.
func randomUndirected(seed int64, nodes, edges, labels int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nodes, 2*edges)
	for i := 0; i < nodes; i++ {
		b.AddNode(Label(rng.Intn(labels)))
	}
	for e := 0; e < edges; e++ {
		u, v := int32(rng.Intn(nodes)), int32(rng.Intn(nodes))
		if u != v {
			b.AddEdgeBoth(u, v, Label(rng.Intn(2)))
		}
	}
	return b.MustBuild()
}

// checkCensusOracle holds one Target.Census result to the brute-force
// oracle on the underlying graph.
func checkCensusOracle(t *testing.T, g *Graph, res CensusResult, k int, label string) {
	t.Helper()
	if res.TimedOut {
		t.Fatalf("%s: k=%d truncated without cancellation", label, k)
	}
	total, classes := testutil.BruteCensus(g, k)
	if res.Subgraphs != total {
		t.Fatalf("%s: k=%d found %d subgraphs, oracle %d", label, k, res.Subgraphs, total)
	}
	if len(res.Classes) != len(classes) {
		t.Fatalf("%s: k=%d found %d classes, oracle %d", label, k, len(res.Classes), len(classes))
	}
	for _, c := range res.Classes {
		if want := classes[string(c.Encoding)]; c.Count != want {
			t.Fatalf("%s: k=%d class count %d, oracle %d", label, k, c.Count, want)
		}
	}
}

// TestCensusOracle: the acceptance sweep — Target.Census against the
// brute-force oracle on over a hundred random graphs, directed and
// undirected, clean and nasty, sequential and parallel, at k=3 and 4.
func TestCensusOracle(t *testing.T) {
	type instance struct {
		g     *Graph
		label string
	}
	var instances []instance
	for seed := int64(0); seed < 60; seed++ {
		_, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 10, TargetEdges: 24, NodeLabels: 2, EdgeLabels: 2,
			Nasty: seed%4 == 0,
		})
		instances = append(instances, instance{gt, "directed"})
		instances = append(instances, instance{randomUndirected(seed, 10, 14, 2), "undirected"})
	}
	for i, inst := range instances {
		tgt, err := NewTarget(inst.g, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{3, 4} {
			workers := 1
			if i%2 == 1 {
				workers = 4
			}
			res, err := tgt.Census(context.Background(), CensusOptions{K: k, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkCensusOracle(t, inst.g, res, k, inst.label)
		}
	}
}

// TestCensusRelabelInvariance: the metamorphic acceptance property — a
// census is a graph invariant, so relabeling the target must preserve
// every class encoding and count exactly.
func TestCensusRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for seed := int64(0); seed < 12; seed++ {
		_, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 12, TargetEdges: 32, NodeLabels: 3, EdgeLabels: 2, Nasty: seed%3 == 0,
		})
		pgt := testutil.PermuteGraph(rng, gt)
		t1, err := NewTarget(gt, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t2, err := NewTarget(pgt, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{3, 4} {
			r1, err := t1.Census(context.Background(), CensusOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := t2.Census(context.Background(), CensusOptions{K: k, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Subgraphs != r2.Subgraphs || len(r1.Classes) != len(r2.Classes) {
				t.Fatalf("seed %d k=%d: census not relabel-invariant (%d/%d subgraphs, %d/%d classes)",
					seed, k, r1.Subgraphs, r2.Subgraphs, len(r1.Classes), len(r2.Classes))
			}
			m := make(map[string]int64, len(r2.Classes))
			for _, c := range r2.Classes {
				m[string(c.Encoding)] = c.Count
			}
			for _, c := range r1.Classes {
				if m[string(c.Encoding)] != c.Count {
					t.Fatalf("seed %d k=%d: class count %d vs %d after relabeling",
						seed, k, c.Count, m[string(c.Encoding)])
				}
			}
		}
	}
}

// TestCensusRepresentativeQueryable: a class representative fed back
// into Enumerate under InducedIso finds Count × automorphisms ordered
// embeddings — the two sides of the library agree with each other.
func TestCensusRepresentativeQueryable(t *testing.T) {
	_, gt := testutil.RandomInstance(9, testutil.InstanceOptions{
		TargetNodes: 12, TargetEdges: 30, NodeLabels: 2,
	})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Census(context.Background(), CensusOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) == 0 {
		t.Skip("no 3-subgraphs in this instance")
	}
	for _, c := range res.Classes {
		enc, _ := CanonicalPattern(c.Pattern)
		if string(enc) != string(c.Encoding) {
			t.Fatal("representative does not canonize to its class encoding")
		}
		if graph.HashBytes(c.Encoding) != c.Hash {
			t.Fatal("class hash does not match its encoding")
		}
		auts, err := Automorphisms(c.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tgt.Count(context.Background(), c.Pattern, Options{Semantics: InducedIso})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.Count*auts {
			t.Fatalf("representative found %d embeddings, census count %d × %d automorphisms = %d",
				got, c.Count, auts, c.Count*auts)
		}
	}
}

// TestCensusStatsFunnel: census runs land in the session plan histogram
// under their census:k=<K> bucket.
func TestCensusStatsFunnel(t *testing.T) {
	_, gt := testutil.RandomInstance(4, testutil.InstanceOptions{TargetNodes: 10, TargetEdges: 20})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Census(context.Background(), CensusOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := tgt.Stats()
	if st.Plans.Planned == 0 {
		t.Fatal("census did not register in the plan histogram")
	}
	if b := st.Plans.Bucket("census:k=3"); b.Count != 1 {
		t.Fatalf("census:k=3 bucket count %d, want 1", b.Count)
	}
	if st.Matches != res.Subgraphs {
		t.Fatalf("session matches %d, census subgraphs %d", st.Matches, res.Subgraphs)
	}
}

// TestCensusTimeout: CensusOptions.Timeout truncates a census the same
// way Options.Timeout truncates a query.
func TestCensusTimeout(t *testing.T) {
	_, gt := testutil.RandomInstance(5, testutil.InstanceOptions{
		TargetNodes: 400, TargetEdges: 12000, NodeLabels: 1,
	})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Census(context.Background(), CensusOptions{K: 6, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("a 20ms census of a dense 400-node graph at k=6 reported complete")
	}
}

// TestConcurrentCensus is the census -race soak: one shared Target
// serving censuses, pattern queries and a mid-run cancellation from
// concurrent goroutines. CI runs it under -race.
func TestConcurrentCensus(t *testing.T) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes: 40, TargetEdges: 240, NodeLabels: 2, Extract: true,
	})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCensus, err := tgt.Census(context.Background(), CensusOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := tgt.Count(context.Background(), gp, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // censuses, alternating sequential and parallel
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := tgt.Census(context.Background(), CensusOptions{K: 3, Workers: 1 + (g+i)%4})
				if err != nil {
					errs <- err
					return
				}
				if res.Subgraphs != wantCensus.Subgraphs || len(res.Classes) != len(wantCensus.Classes) {
					t.Errorf("goroutine %d: census drifted: %d subgraphs, want %d", g, res.Subgraphs, wantCensus.Subgraphs)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) { // pattern queries interleaved with the censuses
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := tgt.Count(context.Background(), gp, Options{Workers: 1 + g%2})
				if err != nil {
					errs <- err
					return
				}
				if got != wantCount {
					t.Errorf("goroutine %d: count drifted: %d, want %d", g, got, wantCount)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // a census cancelled mid-run
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		res, err := tgt.Census(ctx, CensusOptions{K: 6, Workers: 4})
		if err != nil {
			errs <- err
			return
		}
		_ = res // truncation is timing-dependent; racing is the point
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCensusMemoOutlivesRun: the Target keeps its class memo across
// runs, so a second census at one K canonizes nothing and reports the
// same classes. After ApplyUpdates the memo carries over to the new
// graph version, whose census still equals a fresh Target's (and the
// oracle's).
func TestCensusMemoOutlivesRun(t *testing.T) {
	gt := randomUndirected(5, 24, 60, 3)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classes := func(res CensusResult) map[string]int64 {
		m := make(map[string]int64, len(res.Classes))
		for _, c := range res.Classes {
			m[string(c.Encoding)] = c.Count
		}
		return m
	}
	for _, k := range []int{3, 4} {
		first, err := tgt.Census(context.Background(), CensusOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if first.MemoMisses == 0 {
			t.Fatalf("k=%d: first census canonized nothing", k)
		}
		second, err := tgt.Census(context.Background(), CensusOptions{K: k, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if second.MemoMisses != 0 || second.MemoHits != second.Subgraphs {
			t.Fatalf("k=%d: second census had %d misses and %d hits over %d subgraphs, want 0 misses",
				k, second.MemoMisses, second.MemoHits, second.Subgraphs)
		}
		if second.Subgraphs != first.Subgraphs || !maps.Equal(classes(first), classes(second)) {
			t.Fatalf("k=%d: second census differs from the first", k)
		}
	}

	// New arcs with an edge label the graph never had, and a removal.
	rng := rand.New(rand.NewSource(5))
	var ups []EdgeUpdate
	for len(ups) < 6 {
		u, v := int32(rng.Intn(24)), int32(rng.Intn(24))
		if u != v {
			ups = append(ups, EdgeUpdate{From: u, To: v, Label: 9})
		}
	}
	ups = append(ups, EdgeUpdate{From: 0, To: gt.OutNeighbors(0)[0], Label: gt.OutEdgeLabels(0)[0], Remove: true})
	if _, err := tgt.ApplyUpdates(context.Background(), ups); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTarget(tgt.Graph(), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 4} {
		got, err := tgt.Census(context.Background(), CensusOptions{K: k, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Census(context.Background(), CensusOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != 1 || got.Subgraphs != want.Subgraphs || !maps.Equal(classes(got), classes(want)) {
			t.Fatalf("k=%d: census after ApplyUpdates differs from a fresh Target's", k)
		}
		if got.MemoHits == 0 {
			t.Fatalf("k=%d: census after ApplyUpdates did not reuse the memo", k)
		}
		checkCensusOracle(t, tgt.Graph(), got, k, "updated")
	}
}
