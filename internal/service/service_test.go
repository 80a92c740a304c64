package service

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// soakWorld builds the shared fixture of the concurrency tests: one
// labeled target small enough for the brute-force oracle, a pool of
// patterns extracted from it (guaranteed at least one subgraph-iso
// match), and the oracle counts for every (pattern, semantics) pair.
type soakWorld struct {
	gt       *graph.Graph
	tgt      *parsge.Target
	patterns []*graph.Graph
	oracle   map[int]map[parsge.Semantics]int64
}

func buildSoakWorld(t testing.TB, seed int64) *soakWorld {
	t.Helper()
	_, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
		TargetNodes:  26,
		TargetEdges:  110,
		PatternNodes: 4,
		NodeLabels:   3,
		Extract:      true,
	})
	rng := rand.New(rand.NewSource(seed * 31))
	w := &soakWorld{gt: gt, oracle: make(map[int]map[parsge.Semantics]int64)}
	for len(w.patterns) < 6 {
		gp := testutil.ExtractPattern(rng, gt, 3+rng.Intn(3))
		if gp.NumNodes() == 0 {
			continue
		}
		w.patterns = append(w.patterns, gp)
	}
	for i, gp := range w.patterns {
		w.oracle[i] = map[parsge.Semantics]int64{
			parsge.SubgraphIso:  testutil.BruteCountSem(gp, gt, parsge.SubgraphIso),
			parsge.InducedIso:   testutil.BruteCountSem(gp, gt, parsge.InducedIso),
			parsge.Homomorphism: testutil.BruteCountSem(gp, gt, parsge.Homomorphism),
		}
	}
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.tgt = tgt
	return w
}

// soloTarget is the name the one-target routers of these tests host
// their target under, and soloPath the URL prefix of its endpoints.
const (
	soloTarget = "solo"
	soloPath   = "/targets/" + soloTarget
)

// soloRouter hosts tgt as the only target of a router built from cfg —
// the one way a targetService is built — and returns the router and the
// target's service.
func soloRouter(t testing.TB, tgt *parsge.Target, cfg RouterConfig) (*Router, *targetService) {
	t.Helper()
	r := NewRouter(cfg)
	if err := r.AddTargetSession(soloTarget, tgt); err != nil {
		t.Fatal(err)
	}
	svc, err := r.route(soloTarget)
	if err != nil {
		t.Fatal(err)
	}
	return r, svc
}

// blockingWorld builds a service whose homomorphism stream of a 3-path
// over a one-label clique yields over a thousand matches — far more than
// the 64 slots of the stream's channel — so a stream that is not drained
// genuinely holds its admission token and its producer goroutine until
// cancelled or timed out. The fixture behind every
// test that needs a query to still be "in flight" when asserted on.
func blockingWorld(t testing.TB, cfg RouterConfig) (*Router, *targetService, *graph.Graph) {
	t.Helper()
	b := graph.NewBuilder(12, 12*11)
	b.AddNodes(12)
	for i := int32(0); i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			b.AddEdgeBoth(i, j, graph.NoLabel)
		}
	}
	gt := b.MustBuild()
	pb := graph.NewBuilder(3, 2)
	pb.AddNodes(3)
	pb.AddEdge(0, 1, graph.NoLabel)
	pb.AddEdge(1, 2, graph.NoLabel)
	gp := pb.MustBuild() // hom count: 12·11·11 = 1452 ≫ buffering
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, svc := soloRouter(t, tgt, cfg)
	return r, svc, gp
}

// verifyMapping checks that a delivered mapping really is an embedding
// of gp in gt under sem — the guard that catches a bad canonical
// translation of cached mappings, which a count comparison would miss.
func verifyMapping(t *testing.T, gp, gt *graph.Graph, m []int32, sem parsge.Semantics) {
	t.Helper()
	if len(m) != gp.NumNodes() {
		t.Fatalf("mapping has %d entries for a %d-node pattern", len(m), gp.NumNodes())
	}
	seen := make(map[int32]bool)
	for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
		vt := m[vp]
		if vt < 0 || int(vt) >= gt.NumNodes() {
			t.Fatalf("mapping[%d] = %d out of range", vp, vt)
		}
		if gp.NodeLabel(vp) != gt.NodeLabel(vt) {
			t.Fatalf("mapping[%d] = %d: label mismatch", vp, vt)
		}
		if sem != parsge.Homomorphism {
			if seen[vt] {
				t.Fatalf("mapping not injective under %v: %v", sem, m)
			}
			seen[vt] = true
		}
	}
	for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
		adj := gp.OutNeighbors(vp)
		labs := gp.OutEdgeLabels(vp)
		for i, wp := range adj {
			if !gt.HasEdgeLabeled(m[vp], m[wp], labs[i]) {
				t.Fatalf("pattern edge (%d,%d) not preserved by %v", vp, wp, m)
			}
		}
		if sem == parsge.InducedIso {
			for wp := int32(0); wp < int32(gp.NumNodes()); wp++ {
				if wp != vp && !gp.HasEdge(vp, wp) && gt.HasEdge(m[vp], m[wp]) {
					t.Fatalf("pattern non-edge (%d,%d) violated by %v", vp, wp, m)
				}
			}
		}
	}
}

// TestServiceSoak is the satellite soak test: N concurrent clients
// issuing mixed semantics/algorithm queries — counts, enumerations,
// full streams, cancelled streams, and relabeled patterns that must be
// served from the cache of their isomorphic twins — against one service,
// every exact reply held to the brute-force oracle. Run under -race in
// CI; the cache budget is set small enough that eviction and recompute
// churn happen during the run.
func TestServiceSoak(t *testing.T) {
	w := buildSoakWorld(t, 42)
	_, svc := soloRouter(t, w.tgt, RouterConfig{
		Workers:         4,
		ParallelWorkers: 2,
		MaxQueue:        256,
		QueueTimeout:    30 * time.Second,
		CacheMaxMatches: 512, // small: force eviction churn mid-soak
	})
	algs := []parsge.Algorithm{parsge.Auto, parsge.RI, parsge.RIDSSIFC, parsge.VF2, parsge.LAD}
	sems := []parsge.Semantics{parsge.SubgraphIso, parsge.InducedIso, parsge.Homomorphism}

	const clients = 12
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var cancelled atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*97 + 5))
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				pi := rng.Intn(len(w.patterns))
				sem := sems[rng.Intn(len(sems))]
				alg := algs[rng.Intn(len(algs))]
				gp := w.patterns[pi]
				if rng.Intn(3) == 0 {
					gp = testutil.PermuteGraph(rng, gp) // isomorphic twin: same oracle count, should share cache
				}
				want := w.oracle[pi][sem]
				q := Query{Pattern: gp, Options: parsge.Options{Semantics: sem, Algorithm: alg}}
				switch rng.Intn(4) {
				case 0: // count
					r, err := svc.Count(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					if r.Result.Matches != want {
						t.Errorf("client %d: count %v/%v = %d, oracle %d", c, pi, sem, r.Result.Matches, want)
						return
					}
				case 1: // enumerate with mappings
					r, err := svc.Enumerate(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					if int64(len(r.Mappings)) != want || r.Result.Matches != want {
						t.Errorf("client %d: enumerate %v/%v = %d mappings/%d count, oracle %d",
							c, pi, sem, len(r.Mappings), r.Result.Matches, want)
						return
					}
					if len(r.Mappings) > 0 {
						verifyMapping(t, gp, w.gt, r.Mappings[rng.Intn(len(r.Mappings))], sem)
					}
				case 2: // full stream
					matches, end, err := svc.Stream(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					var got int64
					for m := range matches {
						if got == 0 {
							verifyMapping(t, gp, w.gt, m.Mapping, sem)
						}
						got++
					}
					e := <-end
					if e.Err != nil {
						errs <- e.Err
						return
					}
					if !e.Result.TimedOut && got != want {
						t.Errorf("client %d: stream %v/%v delivered %d, oracle %d", c, pi, sem, got, want)
						return
					}
				case 3: // cancelled mid-stream
					sctx, cancel := context.WithCancel(ctx)
					matches, end, err := svc.Stream(sctx, q)
					if err != nil {
						cancel()
						errs <- err
						return
					}
					for range matches {
						cancel() // cancel on (after) the first match, keep draining
					}
					e := <-end
					cancel()
					if e.Err != nil {
						errs <- e.Err
						return
					}
					// A cancelled stream must be truncated or complete —
					// its count is a lower bound either way.
					if e.Result.Matches > want && want >= 0 && !e.Result.TimedOut {
						t.Errorf("client %d: cancelled stream overcounted: %d > oracle %d", c, pi, want)
						return
					}
					cancelled.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Queries != clients*iters {
		t.Errorf("Queries = %d, want %d", st.Queries, clients*iters)
	}
	if st.CacheHits == 0 {
		t.Error("soak never hit the cache")
	}
	if st.Session.Plans.Planned == 0 || len(st.Session.Plans.Buckets) == 0 {
		t.Errorf("plan histogram empty after soak: %+v", st.Session.Plans)
	}
	if st.TokensInUse != 0 || st.Queued != 0 {
		t.Errorf("tokens leaked: inUse=%d queued=%d", st.TokensInUse, st.Queued)
	}
	t.Logf("soak: %d queries, %d hits, %d misses, %d shared, %d executed, %d cancelled streams, %d evictions",
		st.Queries, st.CacheHits, st.CacheMisses, st.Shared, st.Session.Queries, cancelled.Load(), st.CacheEvictions)
}

// TestSingleflightDeduplicates: many goroutines issue the same query at
// once; the service must execute it far fewer times than it answers it
// (ideally once), and every answer must agree with the oracle.
func TestSingleflightDeduplicates(t *testing.T) {
	w := buildSoakWorld(t, 7)
	_, svc := soloRouter(t, w.tgt, RouterConfig{Workers: 4, QueueTimeout: 30 * time.Second})
	gp := w.patterns[0]
	want := w.oracle[0][parsge.Homomorphism] // hom: the most expensive of the three
	const n = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := svc.Count(context.Background(), Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
			if err != nil {
				t.Error(err)
				return
			}
			if r.Result.Matches != want {
				t.Errorf("got %d, oracle %d", r.Result.Matches, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := svc.Stats()
	if st.Session.Queries >= n {
		t.Errorf("no deduplication: %d executions for %d identical queries", st.Session.Queries, n)
	}
	if st.CacheHits+st.Shared == 0 {
		t.Errorf("neither cache nor singleflight served anyone: %+v", st)
	}
	t.Logf("%d identical queries: %d executed, %d cache hits, %d shared", n, st.Session.Queries, st.CacheHits, st.Shared)
}

// TestAdmissionOverload: with a single worker token held by a slow
// query, a full queue must shed (ErrOverloaded) and a bounded wait must
// time out (ErrQueueTimeout). Distinct patterns keep the cache and
// singleflight out of the way.
func TestAdmissionOverload(t *testing.T) {
	_, svc, gp := blockingWorld(t, RouterConfig{
		Workers:      1,
		MaxQueue:     1,
		QueueTimeout: 500 * time.Millisecond,
		Classify:     func(*parsge.Graph, parsge.Options) bool { return false },
	})
	w := buildSoakWorld(t, 13)
	// Occupy the only token: an undrained stream with thousands of
	// matches pending holds it until cancelled.
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches, end, err := svc.Stream(sctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches // admitted and producing; token now held until the stream ends

	// Second query queues (slot 1 of 1)... (a foreign pattern: neither
	// cache nor singleflight can serve it)
	q2err := make(chan error, 1)
	go func() {
		_, err := svc.Count(context.Background(), Query{Pattern: w.patterns[1]})
		q2err <- err
	}()
	// ...wait until it actually occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third query finds the queue full and must be shed immediately.
	if _, err := svc.Count(context.Background(), Query{Pattern: w.patterns[2]}); err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	// The queued query's wait bound fires.
	if err := <-q2err; err != ErrQueueTimeout {
		t.Fatalf("expected ErrQueueTimeout, got %v", err)
	}
	// Release the token; the system must drain clean.
	cancel()
	for range matches {
	}
	<-end
	if st := svc.Stats(); st.TokensInUse != 0 || st.Queued != 0 {
		t.Fatalf("tokens leaked after overload test: %+v", st)
	}
	st := svc.Stats()
	if st.Shed != 1 || st.QueueTimeouts != 1 {
		t.Fatalf("shed=%d queueTimeouts=%d, want 1/1", st.Shed, st.QueueTimeouts)
	}
}

// TestAdmissionPartition: a large query must run with the parallel pool
// (observable via Result.PerWorkerStates) and a small one sequentially,
// regardless of what Workers the client asked for.
func TestAdmissionPartition(t *testing.T) {
	w := buildSoakWorld(t, 23)
	large := false
	_, svc := soloRouter(t, w.tgt, RouterConfig{
		Workers:         4,
		ParallelWorkers: 3,
		Classify:        func(*parsge.Graph, parsge.Options) bool { return large },
	})
	q := Query{Pattern: w.patterns[0], Options: parsge.Options{Workers: 16}} // client asks for 16; service decides
	r, err := svc.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Large || len(r.Result.PerWorkerStates) != 0 {
		t.Fatalf("small query ran parallel: %+v", r.Result)
	}
	large = true
	q.Pattern = w.patterns[1] // distinct pattern: not served by cache
	r, err = svc.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Large || len(r.Result.PerWorkerStates) != 3 {
		t.Fatalf("large query did not get the 3-worker pool: large=%v perWorker=%d", r.Large, len(r.Result.PerWorkerStates))
	}
	if got := svc.Stats(); got.Sequential != 1 || got.Parallel != 1 {
		t.Fatalf("class counters: %d/%d, want 1/1", got.Sequential, got.Parallel)
	}
}

// TestServiceClose: draining refuses new queries with ErrClosed and
// waits for in-flight streams.
func TestServiceClose(t *testing.T) {
	_, svc, gp := blockingWorld(t, RouterConfig{Workers: 2})
	w := buildSoakWorld(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches, end, err := svc.Stream(ctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches // in flight: the undrained producer holds the stream open

	closed := make(chan error, 1)
	go func() {
		cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer ccancel()
		closed <- svc.Close(cctx)
	}()
	// New queries refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := svc.Count(context.Background(), Query{Pattern: w.patterns[1]}); err == ErrClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never started refusing queries")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned while a stream was live: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel() // disconnect the stream consumer
	for range matches {
	}
	<-end
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceValidation: the error paths clients actually hit.
func TestServiceValidation(t *testing.T) {
	w := buildSoakWorld(t, 5)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	if _, err := svc.Count(context.Background(), Query{}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := svc.Count(context.Background(), Query{Pattern: w.patterns[0], Options: parsge.Options{Visit: func([]int32) bool { return true }}}); err == nil {
		t.Error("non-nil Visit accepted")
	}
	if _, err := svc.Count(context.Background(), Query{Pattern: w.patterns[0], Options: parsge.Options{Semantics: 99}}); err == nil {
		t.Error("invalid semantics accepted")
	}
	r := NewRouter(RouterConfig{})
	if err := r.AddTargetSession("nil", nil); err == nil {
		t.Error("nil target accepted")
	}
	if ts := r.Targets(); len(ts) != 0 {
		t.Errorf("a nil target was routed: %+v", ts)
	}
}

// TestNegativeLimitSharesCacheEntry: every engine reads a negative Limit
// as 0 (enumerate all), so a Count with Limit -1 and the same Count with
// Limit 0 are one result, and the second is served from the first's
// cache entry.
func TestNegativeLimitSharesCacheEntry(t *testing.T) {
	w := buildSoakWorld(t, 5)
	r, _ := soloRouter(t, w.tgt, RouterConfig{})
	ctx := context.Background()
	want := w.oracle[0][parsge.SubgraphIso]
	for i, limit := range []int64{-1, 0} {
		reply, err := r.Count(ctx, soloTarget, Query{Pattern: w.patterns[0], Options: parsge.Options{Limit: limit}})
		if err != nil {
			t.Fatal(err)
		}
		if reply.Result.Matches != want {
			t.Errorf("limit %d: %d matches, want %d", limit, reply.Result.Matches, want)
		}
		if hit := i == 1; reply.CacheHit != hit {
			t.Errorf("limit %d: cache hit %v, want %v", limit, reply.CacheHit, hit)
		}
	}
}

// TestHostileSymmetricPatternUncacheable: a highly symmetric unlabeled
// pattern whose canonicalization would be factorial must be answered
// (correctly, via the oracle) without wedging the server — it bypasses
// the cache instead of paying for a canonical form. Repeats never hit
// the cache, and the whole exchange stays fast.
func TestHostileSymmetricPatternUncacheable(t *testing.T) {
	// Target: unlabeled K11. Pattern: unlabeled K10 — 10! ≈ 3.6M
	// orderings per canonicalization attempt; unbudgeted that is
	// minutes of CPU before the query even runs. The Limit keeps the
	// enumeration itself trivial, so the time bound measures exactly
	// what the budget must protect: the pre-admission validate path.
	build := func(n int) *graph.Graph {
		b := graph.NewBuilder(n, n*(n-1))
		b.AddNodes(n)
		for i := int32(0); i < int32(n); i++ {
			for j := i + 1; j < int32(n); j++ {
				b.AddEdgeBoth(i, j, graph.NoLabel)
			}
		}
		return b.MustBuild()
	}
	gt, gp := build(11), build(10)
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{})
	start := time.Now()
	for round := 0; round < 2; round++ {
		r, err := svc.Count(context.Background(), Query{Pattern: gp, Options: parsge.Options{Limit: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Matches < 1000 {
			t.Fatalf("round %d: %d matches, want >= 1000", round, r.Result.Matches)
		}
		if r.CacheHit {
			t.Fatal("uncacheable pattern reported a cache hit")
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("hostile pattern took %v — canonicalization budget not protecting the service", d)
	}
	st := svc.Stats()
	if st.CacheEntries != 0 {
		t.Fatalf("hostile pattern was cached: %+v", st)
	}
	if st.Session.Queries != 2 {
		t.Fatalf("expected 2 real executions, got %d", st.Session.Queries)
	}
}

// TestSingleflightLeaderCancellation: a leader whose own context dies
// must not fail its waiters — they retry and succeed with their live
// contexts.
func TestSingleflightLeaderCancellation(t *testing.T) {
	_, svc, gp := blockingWorld(t, RouterConfig{Workers: 1, MaxQueue: 8, QueueTimeout: 30 * time.Second})
	// Occupy the only token so the leader queues in admission.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	matches, end, err := svc.Stream(sctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches

	q := Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.SubgraphIso}}
	lctx, lcancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.Count(lctx, q)
		leaderErr <- err
	}()
	// Wait for the leader to reach the admission queue, then a waiter
	// joins its flight.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never queued")
		}
		time.Sleep(time.Millisecond)
	}
	waiterDone := make(chan error, 1)
	var waiterReply Reply
	go func() {
		r, err := svc.Count(context.Background(), q)
		waiterReply = r
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	lcancel()                         // the leader's client disconnects
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	// Free the token so the retrying waiter can run.
	scancel()
	for range matches {
	}
	<-end
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the leader's cancellation: %v", err)
		}
		if waiterReply.Result.Matches == 0 {
			t.Fatal("waiter got an empty result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter never completed after leader cancellation")
	}
}
