package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// TestCacheKeyRelabelingInvariant is the satellite property test: the
// cache key must be identical for every relabeling of a pattern (so
// isomorphic patterns from different clients share an entry), and must
// separate whenever semantics or any result-relevant option differs (so
// no two distinguishable queries ever alias one entry).
func TestCacheKeyRelabelingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		gp, _ := testutil.RandomInstance(int64(trial), testutil.InstanceOptions{
			TargetNodes:  20,
			TargetEdges:  60,
			PatternNodes: 2 + trial%5,
			NodeLabels:   1 + trial%4,
			Extract:      true,
		})
		canon, _ := parsge.CanonicalPattern(gp)
		base := cacheKey(canon, parsge.SubgraphIso, parsge.Options{})
		for k := 0; k < 4; k++ {
			pg := testutil.PermuteGraph(rng, gp)
			pcanon, _ := parsge.CanonicalPattern(pg)
			if got := cacheKey(pcanon, parsge.SubgraphIso, parsge.Options{}); got != base {
				t.Fatalf("trial %d: relabeled pattern got a different cache key", trial)
			}
		}
	}
}

// TestCacheKeySeparatesOptions: every semantics and every result-
// relevant option axis must produce a distinct key over one pattern;
// execution-only knobs (Workers, Timeout, TaskGroupSize) must not.
func TestCacheKeySeparatesOptions(t *testing.T) {
	gp, _ := testutil.RandomInstance(1, testutil.InstanceOptions{
		TargetNodes: 12, TargetEdges: 30, PatternNodes: 4, NodeLabels: 2, Extract: true,
	})
	canon, _ := parsge.CanonicalPattern(gp)
	variants := map[string]string{
		"iso":     cacheKey(canon, parsge.SubgraphIso, parsge.Options{}),
		"induced": cacheKey(canon, parsge.InducedIso, parsge.Options{}),
		"hom":     cacheKey(canon, parsge.Homomorphism, parsge.Options{}),
		"limit":   cacheKey(canon, parsge.SubgraphIso, parsge.Options{Limit: 5}),
		"alg":     cacheKey(canon, parsge.SubgraphIso, parsge.Options{Algorithm: parsge.LAD}),
	}
	seen := map[string]string{}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("options %q and %q alias one cache key", prev, name)
		}
		seen[key] = name
	}
	for name, opts := range map[string]parsge.Options{
		"workers": {Workers: 8},
		"timeout": {Timeout: 1e9},
		"tgs":     {TaskGroupSize: 8},
	} {
		if got := cacheKey(canon, parsge.SubgraphIso, opts); got != variants["iso"] {
			t.Errorf("execution knob %q changed the cache key", name)
		}
	}
}

// TestCacheKeySeparatesNonIsomorphic: patterns that are not isomorphic
// must have different keys — guaranteed exactly (not probabilistically)
// because the key embeds the full canonical encoding, not its hash.
func TestCacheKeySeparatesNonIsomorphic(t *testing.T) {
	keys := map[string]int{}
	for trial := 0; trial < 60; trial++ {
		gp, _ := testutil.RandomInstance(int64(1000+trial), testutil.InstanceOptions{
			TargetNodes: 16, TargetEdges: 48, PatternNodes: 2 + trial%5, NodeLabels: 3, Extract: true,
		})
		canon, _ := parsge.CanonicalPattern(gp)
		key := cacheKey(canon, parsge.SubgraphIso, parsge.Options{})
		if prev, dup := keys[key]; dup {
			// Same key is only legal for isomorphic patterns: equal
			// canonical encodings. Verify by counting embeddings of one
			// in the other both ways.
			prevGp, _ := testutil.RandomInstance(int64(1000+prev), testutil.InstanceOptions{
				TargetNodes: 16, TargetEdges: 48, PatternNodes: 2 + prev%5, NodeLabels: 3, Extract: true,
			})
			if gp.NumNodes() != prevGp.NumNodes() || gp.NumEdges() != prevGp.NumEdges() ||
				testutil.BruteCountSem(gp, prevGp, parsge.SubgraphIso) == 0 {
				t.Fatalf("trials %d and %d share a key but are not isomorphic", prev, trial)
			}
			continue
		}
		keys[key] = trial
	}
}

// TestServiceNoSemanticsAliasing: the end-to-end version of the aliasing
// property on an instance where the three semantics disagree (P3 in a
// triangle: 6 subgraph-isos, 0 induced, 12 homomorphisms). A cache that
// aliased semantics would leak the first answer into the others.
func TestServiceNoSemanticsAliasing(t *testing.T) {
	tb := graph.NewBuilder(3, 6)
	tb.AddNodes(3)
	tb.AddEdgeBoth(0, 1, graph.NoLabel)
	tb.AddEdgeBoth(1, 2, graph.NoLabel)
	tb.AddEdgeBoth(0, 2, graph.NoLabel)
	gt := tb.MustBuild()
	pb := graph.NewBuilder(3, 4)
	pb.AddNodes(3)
	pb.AddEdgeBoth(0, 1, graph.NoLabel)
	pb.AddEdgeBoth(1, 2, graph.NoLabel)
	gp := pb.MustBuild()

	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{})
	for round := 0; round < 2; round++ { // round 2: everything cached
		for _, c := range []struct {
			sem  parsge.Semantics
			want int64
		}{
			{parsge.SubgraphIso, 6},
			{parsge.InducedIso, 0},
			{parsge.Homomorphism, 12},
		} {
			if oracle := testutil.BruteCountSem(gp, gt, c.sem); oracle != c.want {
				t.Fatalf("oracle disagrees with the test's arithmetic: %v = %d", c.sem, oracle)
			}
			r, err := svc.Count(context.Background(), Query{Pattern: gp, Options: parsge.Options{Semantics: c.sem}})
			if err != nil {
				t.Fatal(err)
			}
			if r.Result.Matches != c.want {
				t.Fatalf("round %d %v: %d matches, want %d (cache aliasing?)", round, c.sem, r.Result.Matches, c.want)
			}
			if round == 1 && !r.CacheHit {
				t.Errorf("round 2 %v was not a cache hit", c.sem)
			}
		}
	}
}

// TestServiceRelabeledPatternHitsCache: an isomorphic twin of a cached
// pattern must be served from the cache, and its translated mappings
// must be valid embeddings of the twin (not of the original).
func TestServiceRelabeledPatternHitsCache(t *testing.T) {
	w := buildSoakWorld(t, 77)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	rng := rand.New(rand.NewSource(4))
	for pi, gp := range w.patterns {
		want := w.oracle[pi][parsge.SubgraphIso]
		first, err := svc.Enumerate(context.Background(), Query{Pattern: gp})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(first.Mappings)) != want {
			t.Fatalf("pattern %d: %d mappings, oracle %d", pi, len(first.Mappings), want)
		}
		for k := 0; k < 3; k++ {
			twin := testutil.PermuteGraph(rng, gp)
			r, err := svc.Enumerate(context.Background(), Query{Pattern: twin})
			if err != nil {
				t.Fatal(err)
			}
			if !r.CacheHit {
				t.Errorf("pattern %d twin %d missed the cache", pi, k)
			}
			if int64(len(r.Mappings)) != want {
				t.Fatalf("pattern %d twin %d: %d mappings, oracle %d", pi, k, len(r.Mappings), want)
			}
			for _, m := range r.Mappings {
				verifyMapping(t, twin, w.gt, m, parsge.SubgraphIso)
			}
		}
	}
}

// TestCacheLRU: the budget holds, the least-recently-used entry goes
// first, and a get refreshes recency.
func TestCacheLRU(t *testing.T) {
	c := newCache(10) // room for ~3 mapping entries of cost 3
	mk := func(i int) *entry {
		return &entry{
			key:         fmt.Sprintf("k%d", i),
			epoch:       0,
			hasMappings: true,
			mappings:    [][]int32{{0}, {1}}, // cost 3
		}
	}
	for i := 0; i < 3; i++ {
		c.put(mk(i))
	}
	if _, ok := c.get("k0", false, 0, true); !ok {
		t.Fatal("k0 evicted under budget")
	}
	// k0 is now most recent; inserting k3 must evict k1 (the coldest).
	c.put(mk(3))
	if _, ok := c.get("k1", false, 0, true); ok {
		t.Fatal("k1 survived past the budget")
	}
	for _, want := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(want, false, 0, true); !ok {
			t.Fatalf("%s missing", want)
		}
	}
	if entries, cost, _, _, evictions := c.stats(); entries != 3 || cost > 10 || evictions != 1 {
		t.Fatalf("entries=%d cost=%d evictions=%d", entries, cost, evictions)
	}
	// An entry alone exceeding the budget is refused outright.
	big := &entry{key: "big", epoch: 0, hasMappings: true, mappings: make([][]int32, 64)}
	c.put(big)
	if _, ok := c.get("big", false, 0, true); ok {
		t.Fatal("over-budget entry was cached")
	}
	// Disabled cache accepts nothing.
	d := newCache(0)
	d.put(mk(0))
	if _, ok := d.get("k0", false, 0, true); ok {
		t.Fatal("disabled cache served an entry")
	}
}

// TestCacheCountOnlyUpgrade: a count-only entry serves counts but not
// mapping requests; the subsequent mapping run upgrades it; a later
// count-only put must not downgrade it back.
func TestCacheCountOnlyUpgrade(t *testing.T) {
	c := newCache(100)
	c.put(&entry{key: "k", res: parsge.Result{Matches: 2}, epoch: 0})
	if _, ok := c.get("k", false, 0, true); !ok {
		t.Fatal("count-only entry does not serve counts")
	}
	if _, ok := c.get("k", true, 0, true); ok {
		t.Fatal("count-only entry served a mappings request")
	}
	c.put(&entry{key: "k", res: parsge.Result{Matches: 2}, epoch: 0, hasMappings: true, mappings: [][]int32{{0}, {1}}})
	e, ok := c.get("k", true, 0, true)
	if !ok || len(e.mappings) != 2 {
		t.Fatal("upgrade failed")
	}
	c.put(&entry{key: "k", res: parsge.Result{Matches: 2}, epoch: 0})
	if e, ok := c.get("k", true, 0, true); !ok || !e.hasMappings {
		t.Fatal("count-only put downgraded a mappings entry")
	}
}

// TestServiceMappingCapCachesCountOnly: a complete Enumerate with more
// than cacheMaxMappingsPerEntry embeddings is cached without its
// mappings, so the next Count is a cache hit and the next Enumerate
// runs again.
func TestServiceMappingCapCachesCountOnly(t *testing.T) {
	tgt, err := parsge.NewTarget(clique(20), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, svc := soloRouter(t, tgt, RouterConfig{})
	defer r.Close(context.Background())
	q := Query{Pattern: star(2)} // iso 3-paths in K20: 20·19·18 = 6840
	const want = 20 * 19 * 18
	rep, err := svc.Enumerate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit || rep.Result.Matches != want || len(rep.Mappings) != want || want <= cacheMaxMappingsPerEntry {
		t.Fatalf("first Enumerate: hit=%v matches=%d mappings=%d, want a run with %d (> %d) mappings",
			rep.CacheHit, rep.Result.Matches, len(rep.Mappings), want, cacheMaxMappingsPerEntry)
	}
	if rep, err = svc.Count(context.Background(), q); err != nil || !rep.CacheHit || rep.Result.Matches != want {
		t.Fatalf("Count after it: hit=%v matches=%d err=%v, want a cache hit with %d", rep.CacheHit, rep.Result.Matches, err, want)
	}
	if rep, err = svc.Enumerate(context.Background(), q); err != nil || rep.CacheHit || len(rep.Mappings) != want {
		t.Fatalf("second Enumerate: hit=%v mappings=%d err=%v, want a fresh run with %d", rep.CacheHit, len(rep.Mappings), err, want)
	}
}
