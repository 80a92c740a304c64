package parsge

import (
	"context"
	"sync"
	"testing"
	"time"

	"parsge/internal/testutil"
)

// costClique builds an unlabeled complete graph on n nodes.
func costClique(n int32) *Graph {
	b := NewBuilder(int(n), int(n*(n-1)))
	b.AddNodes(int(n))
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeBoth(i, j, NoLabel)
		}
	}
	return b.MustBuild()
}

// costStar builds an unlabeled undirected star with the given leaf count.
func costStar(leaves int) *Graph {
	b := NewBuilder(1+leaves, 2*leaves)
	b.AddNodes(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdgeBoth(0, int32(i), NoLabel)
	}
	return b.MustBuild()
}

// TestTruncatedRunsRecordedSeparately pins the estimator-skew bugfix: a
// timed-out run must land in the plan bucket's truncated counters, not
// among the completed samples — its partial match time is a cost floor,
// not a mean-cost observation. Before the split, one truncated run of a
// heavy query dragged the plan's "mean match time" down to the timeout
// value and the admission model under-priced everything on that plan.
func TestTruncatedRunsRecordedSeparately(t *testing.T) {
	t.Parallel()
	tgt, err := NewTarget(costClique(14), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 9-leaf hom star over K14 has 14·13^9 ≈ 1.5e11 embeddings; 10 ms
	// cannot finish it.
	res, err := tgt.Enumerate(context.Background(), costStar(9), Options{
		Algorithm: RIDSSIFC, // domain-using engine: the run records a plan
		Semantics: Homomorphism,
		Timeout:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatalf("heavy query finished under 10ms (matches=%d) — test target too small", res.Matches)
	}
	if res.Plan == nil {
		t.Fatal("run recorded no preprocessing plan; cannot locate its histogram bucket")
	}
	plan := res.Plan.String()

	st := tgt.Stats()
	b := st.Plans.Bucket(plan)
	if b.Truncated != 1 || b.Count != 0 {
		t.Fatalf("bucket %q: Truncated=%d Count=%d, want 1/0 (truncated run must not count as a sample)",
			plan, b.Truncated, b.Count)
	}
	if b.TruncatedTime <= 0 {
		t.Fatalf("bucket %q: TruncatedTime=%v, want > 0", plan, b.TruncatedTime)
	}
	if b.MatchTime != 0 {
		t.Fatalf("bucket %q: MatchTime=%v leaked from a truncated run", plan, b.MatchTime)
	}
}

// TestEstimateCostMatchesRealRun pins the contract the admission model
// depends on: EstimateCost resolves the same preprocessing plan the real
// enumeration will record (PlanKey names the bucket the run lands in)
// and pins its verdict to the target's current epoch.
func TestEstimateCostMatchesRealRun(t *testing.T) {
	t.Parallel()
	tgt, err := NewTarget(costClique(10), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pat := costStar(3)
	opts := Options{Algorithm: RIDSSIFC, Semantics: Homomorphism, Timeout: 5 * time.Second}

	est, err := tgt.EstimateCost(context.Background(), pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Unsatisfiable {
		t.Fatal("satisfiable query estimated unsatisfiable")
	}
	if est.LogDomainProduct <= 0 {
		t.Fatalf("LogDomainProduct=%v, want > 0 for a satisfiable pattern", est.LogDomainProduct)
	}
	if est.Epoch != tgt.Epoch() {
		t.Fatalf("estimate epoch %d, target epoch %d", est.Epoch, tgt.Epoch())
	}

	res, err := tgt.Enumerate(context.Background(), pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotPlan := "none"
	if res.Plan != nil {
		gotPlan = res.Plan.String()
	}
	if est.PlanKey != gotPlan {
		t.Fatalf("estimate PlanKey %q, real run recorded plan %q", est.PlanKey, gotPlan)
	}
	st := tgt.Stats()
	if bkt := st.Plans.Bucket(est.PlanKey); bkt.Count != 1 {
		t.Fatalf("real run did not land in the estimated bucket %q (Count=%d)", est.PlanKey, bkt.Count)
	}

	// A pattern whose label does not occur in the target must be proved
	// unsatisfiable by preprocessing — the admission model prices it free.
	lb := NewBuilder(2, 2)
	lb.AddNode(9)
	lb.AddNode(9)
	lb.AddEdgeBoth(0, 1, NoLabel)
	uest, err := tgt.EstimateCost(context.Background(), lb.MustBuild(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !uest.Unsatisfiable {
		t.Fatal("absent-label pattern not estimated unsatisfiable")
	}
	if uest.LogDomainProduct != 0 {
		t.Fatalf("unsatisfiable estimate carries LogDomainProduct=%v", uest.LogDomainProduct)
	}
}

// TestCensusTruncationRecorded: a census ended by its timeout must also
// record as truncated in the census plan bucket, keeping the census cost
// signal honest the same way query truncation does.
func TestCensusTruncationRecorded(t *testing.T) {
	t.Parallel()
	tgt, err := NewTarget(costClique(40), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Census(context.Background(), CensusOptions{K: 6, Timeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skipf("census of C(40,6) finished under 15ms on this machine (subgraphs=%d)", res.Subgraphs)
	}
	st := tgt.Stats()
	b := st.Plans.Bucket("census:k=6")
	if b.Truncated != 1 || b.Count != 0 {
		t.Fatalf("census bucket: Truncated=%d Count=%d, want 1/0", b.Truncated, b.Count)
	}
}

// TestEstimatedRunAnswersAtEstimateEpoch: the run an estimate admits
// answers on the snapshot the estimate pinned. An update landing between
// estimate and run must not move it: Result.Epoch is the estimate's
// epoch and Matches the oracle count of that epoch's graph — for the
// run that adopts the domains, for a second run from the same estimate
// (which recomputes them on the same snapshot), and for a run that
// visits every match. A detached estimate, or one computed for another
// pattern, runs on the current snapshot like Enumerate.
func TestEstimatedRunAnswersAtEstimateEpoch(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	tgt, err := NewTarget(costClique(6), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tri := costClique(3)
	opts := Options{Algorithm: RIDSSIFC}
	g0 := tgt.Graph()
	est, err := tgt.EstimateCost(ctx, tri, opts)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(u, v int32) {
		t.Helper()
		if _, err := tgt.ApplyUpdates(ctx, []EdgeUpdate{{From: u, To: v, Remove: true}, {From: v, To: u, Remove: true}}); err != nil {
			t.Fatal(err)
		}
	}
	cut(0, 1)
	if tgt.Epoch() == est.Epoch {
		t.Fatal("update did not advance the epoch")
	}
	want := testutil.BruteCountSem(tri, g0, SubgraphIso)
	for run := 1; run <= 2; run++ {
		res, err := tgt.EnumerateEstimated(ctx, est, tri, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != est.Epoch || res.Matches != want {
			t.Fatalf("run %d from the estimate: epoch %d matches %d, want epoch %d matches %d",
				run, res.Epoch, res.Matches, est.Epoch, want)
		}
	}

	g1 := tgt.Graph()
	est1, err := tgt.EstimateCost(ctx, tri, opts)
	if err != nil {
		t.Fatal(err)
	}
	cut(2, 3)
	var visited int64
	visiting := opts
	visiting.Visit = func([]int32) bool { visited++; return true }
	res, err := tgt.EnumerateEstimated(ctx, est1, tri, visiting)
	want = testutil.BruteCountSem(tri, g1, SubgraphIso)
	if err != nil || res.Epoch != est1.Epoch || res.Matches != want || visited != want {
		t.Fatalf("visiting run from the estimate: err %v epoch %d matches %d visited %d, want epoch %d matches %d",
			err, res.Epoch, res.Matches, visited, est1.Epoch, want)
	}

	want = testutil.BruteCountSem(tri, tgt.Graph(), SubgraphIso)
	for name, run := range map[string]func() (Result, error){
		"detached":      func() (Result, error) { return tgt.EnumerateEstimated(ctx, est1.Detached(), tri, opts) },
		"other pattern": func() (Result, error) { return tgt.EnumerateEstimated(ctx, est1, costClique(3), opts) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != tgt.Epoch() || res.Matches != want {
			t.Errorf("%s estimate: epoch %d matches %d, want the current epoch %d and %d matches",
				name, res.Epoch, res.Matches, tgt.Epoch(), want)
		}
	}
}

// TestEstimateSharedByConcurrentRuns: runs sharing one estimate race
// for its domains. One adopts them and the others compute their own on
// the pinned snapshot; every run, sequential or on the steal pool, must
// answer at the estimate's epoch with that graph's oracle count.
func TestEstimateSharedByConcurrentRuns(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	tgt, err := NewTarget(costClique(7), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pat := costStar(3)
	g0 := tgt.Graph()
	est, err := tgt.EstimateCost(ctx, pat, Options{Algorithm: RIDSSIFC})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.ApplyUpdates(ctx, []EdgeUpdate{{From: 0, To: 1, Remove: true}}); err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteCountSem(pat, g0, SubgraphIso)
	results := make([]Result, 6)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = tgt.EnumerateEstimated(ctx, est, pat, Options{Algorithm: RIDSSIFC, Workers: 1 + i%2})
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Epoch != est.Epoch || res.Matches != want {
			t.Errorf("run %d: epoch %d matches %d, want epoch %d matches %d", i, res.Epoch, res.Matches, est.Epoch, want)
		}
	}
}
