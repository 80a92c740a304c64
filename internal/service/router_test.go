package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// routerWorld builds a router hosting n independent random targets
// (small enough for the brute-force oracle), each with one extracted
// probe pattern.
type routerWorld struct {
	r        *Router
	names    []string
	graphs   map[string]*graph.Graph
	patterns map[string]*graph.Graph
}

func buildRouterWorld(t testing.TB, cfg RouterConfig, n int, seed int64) *routerWorld {
	t.Helper()
	w := &routerWorld{
		r:        NewRouter(cfg),
		graphs:   make(map[string]*graph.Graph),
		patterns: make(map[string]*graph.Graph),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		_, gt := testutil.RandomInstance(seed+int64(i)*101, testutil.InstanceOptions{
			TargetNodes:  14 + 2*i,
			TargetEdges:  50 + 10*i,
			PatternNodes: 3,
			NodeLabels:   3,
			Extract:      true,
		})
		if err := w.r.AddTarget(name, gt, parsge.TargetOptions{}); err != nil {
			t.Fatal(err)
		}
		w.names = append(w.names, name)
		w.graphs[name] = gt
		w.patterns[name] = testutil.ExtractPattern(rng, gt, 3)
	}
	return w
}

// TestRouterBasics: routing, per-target isolation of results and
// caches, unknown-target errors, listing order.
func TestRouterBasics(t *testing.T) {
	w := buildRouterWorld(t, RouterConfig{Workers: 4}, 3, 41)
	defer w.r.Close(context.Background())
	ctx := context.Background()

	for _, name := range w.names {
		want := testutil.BruteCountSem(w.patterns[name], w.graphs[name], parsge.SubgraphIso)
		rep, err := w.r.Count(ctx, name, Query{Pattern: w.patterns[name]})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Matches != want {
			t.Fatalf("%s: %d matches, oracle %d", name, rep.Result.Matches, want)
		}
		// Same query again: served from this target's own cache.
		rep, err = w.r.Count(ctx, name, Query{Pattern: w.patterns[name]})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.CacheHit {
			t.Fatalf("%s: repeat query missed the cache", name)
		}
	}

	if _, err := w.r.Count(ctx, "nope", Query{Pattern: w.patterns[w.names[0]]}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target error = %v", err)
	}
	if err := w.r.AddTarget(w.names[0], w.graphs[w.names[0]], parsge.TargetOptions{}); err == nil {
		t.Fatal("duplicate AddTarget succeeded")
	}
	if err := w.r.AddTarget("", w.graphs[w.names[0]], parsge.TargetOptions{}); err == nil {
		t.Fatal("empty-name AddTarget succeeded")
	}

	infos := w.r.Targets()
	if len(infos) != 3 {
		t.Fatalf("%d targets listed", len(infos))
	}
	for i, info := range infos {
		if info.Name != w.names[i] {
			t.Fatalf("listing order: %v", infos)
		}
		if info.Nodes != w.graphs[info.Name].NumNodes() || info.Edges != w.graphs[info.Name].NumEdges() {
			t.Fatalf("listing sizes wrong: %+v", info)
		}
		if info.Epoch != 0 {
			t.Fatalf("fresh target epoch %d", info.Epoch)
		}
	}

	st := w.r.Stats()
	if len(st.PerTarget) != 3 {
		t.Fatalf("stats for %d targets", len(st.PerTarget))
	}
	var totalQueries int64
	for _, ts := range st.PerTarget {
		totalQueries += ts.Queries
	}
	if totalQueries != 6 {
		t.Fatalf("total queries %d, want 6", totalQueries)
	}
}

// TestRouterUpdateInvalidation: an update through the router bumps the
// target's epoch and both result and census caches refuse to serve the
// superseded epoch — the post-update counts equal a fresh oracle run on
// the updated graph.
func TestRouterUpdateInvalidation(t *testing.T) {
	w := buildRouterWorld(t, RouterConfig{Workers: 4}, 2, 43)
	defer w.r.Close(context.Background())
	ctx := context.Background()
	name := w.names[0]
	gp := w.patterns[name]

	rep, err := w.r.Count(ctx, name, Query{Pattern: gp})
	if err != nil {
		t.Fatal(err)
	}
	preCount := rep.Result.Matches
	cen, err := w.r.Census(ctx, name, CensusRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	preCensus := cen.Result.Subgraphs

	// Delete every arc incident to node 0 going out — guaranteed to
	// change the graph (RandomInstance targets are connected enough).
	g := w.graphs[name]
	var ups []parsge.EdgeUpdate
	for _, e := range g.Edges() {
		if e.From == 0 || e.To == 0 {
			ups = append(ups, parsge.EdgeUpdate{From: e.From, To: e.To, Label: e.Label, Remove: true})
		}
	}
	if len(ups) == 0 {
		t.Fatal("fixture: node 0 isolated")
	}
	upRes, err := w.r.Update(ctx, name, ups)
	if err != nil {
		t.Fatal(err)
	}
	if upRes.Epoch != 1 {
		t.Fatalf("epoch after update = %d", upRes.Epoch)
	}

	// Rebuild the oracle graph and recompute.
	ng := w.r.routes[name].tgt.Graph()
	wantCount := testutil.BruteCountSem(gp, ng, parsge.SubgraphIso)

	rep, err = w.r.Count(ctx, name, Query{Pattern: gp})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("post-update query served from the pre-update cache")
	}
	if rep.Result.Matches != wantCount {
		t.Fatalf("post-update count %d, oracle %d", rep.Result.Matches, wantCount)
	}
	if rep.Result.Epoch != 1 {
		t.Fatalf("post-update result epoch %d", rep.Result.Epoch)
	}

	cen, err = w.r.Census(ctx, name, CensusRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cen.CacheHit {
		t.Fatal("post-update census served from the pre-update cache")
	}
	if cen.Result.Epoch != 1 {
		t.Fatalf("post-update census epoch %d", cen.Result.Epoch)
	}
	if preCensus == cen.Result.Subgraphs && preCount == rep.Result.Matches {
		t.Log("update changed neither count — fixture weak but invalidation still verified")
	}

	// The sibling target's epoch and cache are untouched.
	other := w.names[1]
	if w.r.routes[other].tgt.Epoch() != 0 {
		t.Fatal("sibling epoch moved")
	}
	if _, err := w.r.Count(ctx, other, Query{Pattern: w.patterns[other]}); err != nil {
		t.Fatal(err)
	}
	rep, err = w.r.Count(ctx, other, Query{Pattern: w.patterns[other]})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit {
		t.Fatal("sibling cache was invalidated by an unrelated update")
	}

	st := w.r.Stats().PerTarget[name]
	if st.Updates != 1 || st.Epoch != 1 {
		t.Fatalf("stats updates/epoch = %d/%d", st.Updates, st.Epoch)
	}
}

// TestRouterIndexLRU: with MaxHotIndexes=1, touching target B evicts
// cold target A's index; touching A again rebuilds it (and evicts B's).
// Counts stay correct throughout — eviction is invisible to results.
func TestRouterIndexLRU(t *testing.T) {
	w := buildRouterWorld(t, RouterConfig{Workers: 4, MaxHotIndexes: 1}, 3, 47)
	defer w.r.Close(context.Background())
	ctx := context.Background()

	hotCount := func() (n int, hot string) {
		for _, info := range w.r.Targets() {
			if info.IndexHot {
				n++
				hot = info.Name
			}
		}
		return
	}

	for round := 0; round < 2; round++ {
		for _, name := range w.names {
			want := testutil.BruteCountSem(w.patterns[name], w.graphs[name], parsge.SubgraphIso)
			rep, err := w.r.Count(ctx, name, Query{Pattern: w.patterns[name]})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Matches != want {
				t.Fatalf("%s after eviction churn: %d matches, oracle %d", name, rep.Result.Matches, want)
			}
			if n, hot := hotCount(); n > 1 {
				t.Fatalf("%d hot indexes under MaxHotIndexes=1", n)
			} else if n == 1 && hot != name {
				t.Fatalf("hot index is %s after touching %s", hot, name)
			}
		}
	}
	// Unbounded router never evicts.
	w2 := buildRouterWorld(t, RouterConfig{Workers: 4}, 3, 47)
	defer w2.r.Close(context.Background())
	for _, name := range w2.names {
		if _, err := w2.r.Count(ctx, name, Query{Pattern: w2.patterns[name]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, info := range w2.r.Targets() {
		if !info.IndexHot {
			t.Fatalf("%s evicted with MaxHotIndexes unset", info.Name)
		}
	}
}

// TestAdmissionClassFairness: two classes contending for a single
// token must alternate grants (round-robin across classes) even when
// one class enqueued every waiter first — a flood from one target
// cannot monopolize the budget.
func TestAdmissionClassFairness(t *testing.T) {
	a := newAdmission(1, 64)
	ctx := context.Background()
	if _, err := a.acquire(ctx, "hold", 1, 0, false); err != nil {
		t.Fatal(err)
	}

	const perClass = 4
	var mu sync.Mutex
	var grants []string
	var wg sync.WaitGroup
	start := func(class string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.acquire(ctx, class, 1, 0, false); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			grants = append(grants, class)
			mu.Unlock()
			a.release(1)
		}()
	}
	// All of class A enqueues first, then all of class B.
	for i := 0; i < perClass; i++ {
		start("A")
		// Deterministic FIFO position within the class.
		for {
			if _, q, _, _, _, _ := a.load(); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < perClass; i++ {
		start("B")
		for {
			if _, q, _, _, _, _ := a.load(); q == perClass+i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.release(1) // open the floodgate
	wg.Wait()

	// Strict FIFO would grant AAAABBBB; round-robin across classes must
	// interleave: within the first four grants, both classes appear at
	// least once, and no class gets more than one grant of lead over
	// the other at any prefix beyond the first.
	counts := map[string]int{}
	for i, c := range grants {
		counts[c]++
		if i >= 1 {
			if d := counts["A"] - counts["B"]; d < -1 || d > 1 {
				t.Fatalf("grant order %v: class lead |%d| > 1 at prefix %d", grants, d, i+1)
			}
		}
	}
	if counts["A"] != perClass || counts["B"] != perClass {
		t.Fatalf("grants %v", grants)
	}
}

// TestConcurrentRouterMutation is the -race soak of ISSUE 7 satellite
// 3: concurrent query, stream, census and update clients hammer a
// shared Router. Every reply must be consistent with the epoch it
// claims: a result stamped epoch E equals the oracle count for graph
// version E — so no stale cache entry, singleflight rendezvous or
// admission reordering can serve a pre-update answer for a post-update
// graph. A mid-update cancellation client exercises the discard path.
func TestConcurrentRouterMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Base target: a small labeled random graph; updates toggle a fixed
	// pool of extra arcs so every graph version is precomputable.
	_, gt := testutil.RandomInstance(59, testutil.InstanceOptions{
		TargetNodes:  16,
		TargetEdges:  60,
		PatternNodes: 3,
		NodeLabels:   2,
		Extract:      true,
	})
	rng := rand.New(rand.NewSource(59))
	gp := testutil.ExtractPattern(rng, gt, 3)

	// The mutation schedule: version v of the graph has the first
	// v%len(extra) arcs of the pool added. Precompute every version's
	// oracle count.
	type arc struct {
		u, v int32
		l    graph.Label
	}
	extra := []arc{{0, 5, 1}, {1, 9, 0}, {2, 13, 1}, {3, 7, 0}}
	versions := len(extra) + 1
	oracle := make([]int64, versions)
	graphs := make([]*graph.Graph, versions)
	for v := 0; v < versions; v++ {
		b := graph.NewBuilder(gt.NumNodes(), 0)
		for i := int32(0); i < int32(gt.NumNodes()); i++ {
			b.AddNode(gt.NodeLabel(i))
		}
		for _, e := range gt.Edges() {
			b.AddEdge(e.From, e.To, e.Label)
		}
		for i := 0; i < v; i++ {
			b.AddEdgeBoth(extra[i].u, extra[i].v, extra[i].l)
		}
		graphs[v] = b.MustBuild()
		oracle[v] = testutil.BruteCountSem(gp, graphs[v], parsge.SubgraphIso)
	}

	r := NewRouter(RouterConfig{Workers: 8, MaxQueue: 256, QueueTimeout: 10 * time.Second})
	defer r.Close(context.Background())
	if err := r.AddTarget("mut", gt, parsge.TargetOptions{}); err != nil {
		t.Fatal(err)
	}
	// A second, immutable target shares the admission: its count must
	// never waver while its sibling mutates.
	if err := r.AddTarget("fix", gt, parsge.TargetOptions{}); err != nil {
		t.Fatal(err)
	}
	fixWant := oracle[0]

	ctx := context.Background()
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var epochsServed [16]int64 // epoch → hits observed (sized generously)

	// Updater: walk the version schedule up and down; each step is one
	// batch (add or remove one pooled arc, both directions).
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := 0
		for time.Now().Before(deadline) {
			next := (v + 1) % versions
			var ups []parsge.EdgeUpdate
			if next > v { // add arc v
				a := extra[v]
				ups = []parsge.EdgeUpdate{{From: a.u, To: a.v, Label: a.l}, {From: a.v, To: a.u, Label: a.l}}
			} else { // wrap: remove every pooled arc
				for i := 0; i < v; i++ {
					a := extra[i]
					ups = append(ups, parsge.EdgeUpdate{From: a.u, To: a.v, Label: a.l, Remove: true},
						parsge.EdgeUpdate{From: a.v, To: a.u, Label: a.l, Remove: true})
				}
			}
			if _, err := r.Update(ctx, "mut", ups); err != nil {
				t.Error(err)
				return
			}
			v = next
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Mid-update cancellation client: fires already-cancelled updates;
	// none may ever commit (they would desync the version schedule and
	// the count oracle below would catch it, but check the error too).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := r.Update(cctx, "mut", []parsge.EdgeUpdate{{From: 0, To: 1, Label: 7}}); err == nil {
				t.Error("cancelled update succeeded")
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Query clients: counts against the mutable target must match the
	// oracle for the epoch the reply claims.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rep, err := r.Count(ctx, "mut", Query{Pattern: gp})
				if err != nil {
					t.Error(err)
					return
				}
				v := int(rep.Result.Epoch) % versions
				if rep.Result.Matches != oracle[v] {
					t.Errorf("epoch %d served %d matches, oracle %d", rep.Result.Epoch, rep.Result.Matches, oracle[v])
					return
				}
				atomic.AddInt64(&epochsServed[rep.Result.Epoch%16], 1)
			}
		}()
	}

	// Stream client on the mutable target: the end-of-stream result
	// must be internally consistent with its own epoch too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			matches, end, err := r.Stream(ctx, "mut", Query{Pattern: gp})
			if err != nil {
				t.Error(err)
				return
			}
			n := int64(0)
			for range matches {
				n++
			}
			e := <-end
			if e.Err != nil {
				t.Error(e.Err)
				return
			}
			v := int(e.Result.Epoch) % versions
			if n != oracle[v] || e.Result.Matches != oracle[v] {
				t.Errorf("stream at epoch %d delivered %d/%d, oracle %d", e.Result.Epoch, n, e.Result.Matches, oracle[v])
				return
			}
		}
	}()

	// Census client on the mutable target: cached replies must be from
	// the current graph version (epoch-keyed census cache).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rep, err := r.Census(ctx, "mut", CensusRequest{K: 3})
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Result.K != 3 || rep.Result.Subgraphs <= 0 {
				t.Errorf("census reply %+v", rep.Result)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Immutable sibling client: the answer never changes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			rep, err := r.Count(ctx, "fix", Query{Pattern: gp})
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Result.Matches != fixWant || rep.Result.Epoch != 0 {
				t.Errorf("immutable sibling served %d at epoch %d, want %d at 0", rep.Result.Matches, rep.Result.Epoch, fixWant)
				return
			}
		}
	}()

	wg.Wait()
	var distinct int
	for _, n := range epochsServed {
		if n > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		t.Logf("soak served only %d distinct epochs — timing-bound, not a failure", distinct)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
