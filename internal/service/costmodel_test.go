package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// clique builds an unlabeled (shared-label) complete graph on n nodes.
func clique(n int32) *graph.Graph {
	b := graph.NewBuilder(int(n), int(n*(n-1)))
	b.AddNodes(int(n))
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeBoth(i, j, graph.NoLabel)
		}
	}
	return b.MustBuild()
}

// star builds an unlabeled undirected star: one center, leaves leaves.
func star(leaves int) *graph.Graph {
	b := graph.NewBuilder(1+leaves, 2*leaves)
	b.AddNodes(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdgeBoth(0, int32(i), graph.NoLabel)
	}
	return b.MustBuild()
}

// TestMaxTimeoutClampsClientTimeout: RouterConfig.MaxTimeout must bound
// every query and census however generous the client's own timeout is —
// a client asking for an hour must not hold a worker for an hour. The
// regression this pins: before the clamp, the serving path trusted
// Options.Timeout verbatim, so one hostile request could pin the pool
// for its full client-side budget.
func TestMaxTimeoutClampsClientTimeout(t *testing.T) {
	t.Parallel()
	// Query path: a 7-leaf star over K12 under homomorphism has
	// 12·11^7 ≈ 2.3e8 embeddings — far more than 100 ms of search.
	tgt, err := parsge.NewTarget(clique(12), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A negative timeout counts as unset and is clamped the same way.
	// Each input gets a fresh router: the first run's cost history
	// would shed the second.
	for _, timeout := range []time.Duration{time.Hour, -time.Millisecond} {
		_, svc := soloRouter(t, tgt, RouterConfig{MaxTimeout: 100 * time.Millisecond})
		start := time.Now()
		reply, err := svc.Count(context.Background(), Query{
			Pattern: star(7),
			Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: timeout},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Result.TimedOut {
			t.Fatalf("timeout %v: query not truncated by MaxTimeout (matches=%d)", timeout, reply.Result.Matches)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("timeout %v: clamped query still took %v", timeout, d)
		}
	}

	// Census path: connected 6-subgraphs of K40 number C(40,6) ≈ 3.8M —
	// well past a 20 ms budget. The clamp must apply to census runs
	// too (the original bug let census bypass it entirely).
	ctgt, err := parsge.NewTarget(clique(40), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, timeout := range []time.Duration{time.Hour, -time.Millisecond} {
		_, csvc := soloRouter(t, ctgt, RouterConfig{MaxTimeout: 20 * time.Millisecond})
		start := time.Now()
		crep, err := csvc.Census(context.Background(), CensusRequest{K: 6, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		if !crep.Result.TimedOut {
			t.Fatalf("timeout %v: census not truncated by MaxTimeout (subgraphs=%d)", timeout, crep.Result.Subgraphs)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("timeout %v: clamped census still took %v", timeout, d)
		}
	}
}

// TestAdmissionClassDifferential pins the cost model's verdicts on a
// fixed constructed workload: each query's (class, shed/served, epoch)
// against explicit thresholds. The workload spans every class —
// unsatisfiable (free), small, large, and explosive under both
// policies.
func TestAdmissionClassDifferential(t *testing.T) {
	t.Parallel()
	gt := clique(20)
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds sized to the K20 target: an 8-node unlabeled pattern
	// has log2 bound 8·log2(20) ≈ 34.6 (explosive), a 3-node one
	// ≈ 13 (between small and explosive: large), and a pattern with a
	// label absent from the target is unsatisfiable (small).
	cfg := RouterConfig{
		SmallLogDomain:     8,
		ExplosiveLogDomain: 30,
		CacheMaxMatches:    -1,
	}
	_, svc := soloRouter(t, tgt, cfg)

	labeled := graph.NewBuilder(2, 2)
	labeled.AddNode(7) // label 7 does not occur in the unlabeled target
	labeled.AddNode(7)
	labeled.AddEdgeBoth(0, 1, graph.NoLabel)
	unsat := labeled.MustBuild()

	epoch := tgt.Epoch()
	cases := []struct {
		name    string
		pattern *graph.Graph
		class   AdmissionClass
		shed    bool
	}{
		{"unsatisfiable", unsat, ClassSmall, false},
		{"large path", star(2), ClassLarge, false}, // 3 nodes: score ≈ 13
		{"explosive star", star(7), classUnset, true},
	}
	for _, tc := range cases {
		reply, err := svc.Count(context.Background(), Query{
			Pattern: tc.pattern,
			Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: 5 * time.Second},
		})
		if tc.shed {
			if !errors.Is(err, ErrPredictedExplosive) {
				t.Fatalf("%s: want ErrPredictedExplosive, got %v", tc.name, err)
			}
			var ex *ExplosiveError
			if !errors.As(err, &ex) {
				t.Fatalf("%s: shed error is not an *ExplosiveError: %v", tc.name, err)
			}
			if ex.Plan == "" || ex.LogDomainProduct < cfg.ExplosiveLogDomain {
				t.Fatalf("%s: shed verdict under-specified: %+v", tc.name, ex)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reply.Class != tc.class {
			t.Fatalf("%s: class %v, want %v", tc.name, reply.Class, tc.class)
		}
		if reply.ClassEpoch != epoch {
			t.Fatalf("%s: class epoch %d, want %d", tc.name, reply.ClassEpoch, epoch)
		}
	}
	st := svc.Stats()
	if st.ShedExplosive != 1 {
		t.Fatalf("ShedExplosive = %d, want 1", st.ShedExplosive)
	}

	// The same explosive query under ExplosiveDeprioritize is served —
	// truncated by its timeout on the low-priority tier, not shed.
	dtgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.ExplosivePolicy = ExplosiveDeprioritize
	_, dsvc := soloRouter(t, dtgt, dcfg)
	reply, err := dsvc.Count(context.Background(), Query{
		Pattern: star(7),
		Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("deprioritized explosive: %v", err)
	}
	if reply.Class != ClassExplosive {
		t.Fatalf("deprioritized explosive: class %v, want %v", reply.Class, ClassExplosive)
	}
	if st := dsvc.Stats(); st.Deprioritized != 1 || st.ShedExplosive != 0 {
		t.Fatalf("deprioritized=%d shedExplosive=%d, want 1/0", st.Deprioritized, st.ShedExplosive)
	}
}

// TestMispredictionFeedbackFlips: a fast query forced to classify large
// by a near-zero SmallLogDomain must flip to small once the per-plan
// EWMA has estimatorMinSamples observations — and the pass that
// misclassified it must show up in MispredictLarge. The cache is
// disabled so every iteration really enumerates and feeds the
// estimator.
func TestMispredictionFeedbackFlips(t *testing.T) {
	t.Parallel()
	tgt, err := parsge.NewTarget(clique(6), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{
		SmallLogDomain:  0.001, // everything satisfiable scores above this
		CacheMaxMatches: -1,
	})
	q := Query{
		Pattern: star(2), // hom 3-path over K6: 6·5·5 = 150 matches, microseconds
		Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: 5 * time.Second},
	}
	var flippedAt int
	for i := 1; i <= estimatorMinSamples+3; i++ {
		reply, err := svc.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 1 && reply.Class != ClassLarge:
			t.Fatalf("iteration 1: class %v, want %v (no history yet)", reply.Class, ClassLarge)
		case reply.Class == ClassSmall && flippedAt == 0:
			flippedAt = i
		case reply.Class == ClassLarge && flippedAt != 0:
			t.Fatalf("iteration %d: flipped back to large after going small at %d", i, flippedAt)
		}
	}
	if flippedAt == 0 || flippedAt > estimatorMinSamples+2 {
		t.Fatalf("EWMA never flipped the class to small within %d iterations (flip at %d)",
			estimatorMinSamples+3, flippedAt)
	}
	st := svc.Stats()
	if st.MispredictLarge == 0 {
		t.Fatal("misclassified-large iterations recorded no MispredictLarge")
	}
	if st.MispredictLarge >= int64(estimatorMinSamples+3) {
		t.Fatalf("MispredictLarge = %d: feedback never stopped the mispredictions", st.MispredictLarge)
	}
}

// TestCostFloorShedsAcrossEpochs: one truncated run prices its plan
// through the EWMA's truncation floor, so the next query on that plan
// is shed with a history-backed prediction even though its own domain
// bound is below ExplosiveLogDomain — and still after updates have
// advanced the epoch, since the floor is kept per plan, not per epoch.
func TestCostFloorShedsAcrossEpochs(t *testing.T) {
	t.Parallel()
	tgt, err := parsge.NewTarget(clique(14), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{
		ExplosiveBudget:    10 * time.Millisecond,
		ExplosiveLogDomain: 1000, // no shed on sight: only history can shed
	})
	// A 9-leaf hom star over K14 has 14·13^9 ≈ 1.5e11 embeddings; 50 ms
	// cannot finish it.
	q := Query{
		Pattern: star(9),
		Options: parsge.Options{Algorithm: parsge.RIDSSIFC, Semantics: parsge.Homomorphism, Timeout: 50 * time.Millisecond},
	}
	reply, err := svc.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Result.TimedOut || reply.PredictedCost != 0 {
		t.Fatalf("first run: timedOut=%v predicted=%v, want a truncated run priced by no history",
			reply.Result.TimedOut, reply.PredictedCost)
	}
	shed := func(stage string) {
		t.Helper()
		_, err := svc.Count(context.Background(), q)
		var ex *ExplosiveError
		if !errors.As(err, &ex) || !errors.Is(err, ErrPredictedExplosive) {
			t.Fatalf("%s: want an *ExplosiveError shed, got %v", stage, err)
		}
		if ex.Predicted < 10*time.Millisecond {
			t.Fatalf("%s: shed with Predicted=%v, want the truncation floor (≥ the 10ms budget)", stage, ex.Predicted)
		}
	}
	shed("same epoch")
	// Remove and restore one arc: two epochs later the graph, and so the
	// plan, is the same.
	for _, remove := range []bool{true, false} {
		if _, err := svc.Update(context.Background(), []parsge.EdgeUpdate{{From: 0, To: 1, Remove: remove}}); err != nil {
			t.Fatal(err)
		}
	}
	if tgt.Epoch() != 2 {
		t.Fatalf("epoch %d after two updates, want 2", tgt.Epoch())
	}
	shed("after updates")
	if st := svc.Stats(); st.ShedExplosive != 2 {
		t.Fatalf("ShedExplosive = %d, want 2", st.ShedExplosive)
	}
}

// TestClassEpochPinnedUnderUpdates hammers classification against
// concurrent target mutations under -race: every reply's ClassEpoch
// must be a snapshot that existed (≤ the epoch the query ran against —
// epochs are monotonic, and classification happens before the run).
func TestClassEpochPinnedUnderUpdates(t *testing.T) {
	t.Parallel()
	gt := clique(8)
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{CacheMaxMatches: -1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Oscillate one arc so the graph never drifts while epochs
		// advance continuously.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			up := parsge.EdgeUpdate{From: 0, To: 1, Remove: i%2 == 0}
			if _, err := svc.Update(context.Background(), []parsge.EdgeUpdate{up}); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	q := Query{
		Pattern: star(2),
		Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: 5 * time.Second},
	}
	for i := 0; i < 200; i++ {
		reply, err := svc.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Class == classUnset {
			t.Fatalf("iteration %d: reply carries no admission class", i)
		}
		if reply.ClassEpoch > reply.Result.Epoch {
			t.Fatalf("iteration %d: class epoch %d from the future (run epoch %d)",
				i, reply.ClassEpoch, reply.Result.Epoch)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAdmittedRunAnswersAtClassEpoch: every admitted query runs on the
// snapshot its cost estimate pinned. With estimate-cache hits ruled out
// (no two queries share a canonical pattern and semantics) and a writer
// advancing the epoch throughout, each reply must carry Result.Epoch ==
// ClassEpoch and the oracle count of the graph at that epoch.
func TestAdmittedRunAnswersAtClassEpoch(t *testing.T) {
	t.Parallel()
	full := clique(6)
	cb := graph.NewBuilder(6, 0)
	cb.AddNodes(6)
	for _, e := range full.Edges() {
		if e.From != 0 || e.To != 1 {
			cb.AddEdge(e.From, e.To, e.Label)
		}
	}
	cut := cb.MustBuild() // the graph at every odd epoch
	tgt, err := parsge.NewTarget(full, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, svc := soloRouter(t, tgt, RouterConfig{CacheMaxMatches: -1})

	// Distinct directed 4-node patterns, deduplicated by canonical form.
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	var patterns []*graph.Graph
	for len(patterns) < 40 {
		b := graph.NewBuilder(4, 0)
		b.AddNodes(4)
		for u := int32(0); u < 4; u++ {
			for v := int32(0); v < 4; v++ {
				if u != v && rng.Intn(3) == 0 {
					b.AddEdge(u, v, graph.NoLabel)
				}
			}
		}
		gp := b.MustBuild()
		if canon, _ := graph.CanonicalForm(gp); !seen[string(canon)] {
			seen[string(canon)] = true
			patterns = append(patterns, gp)
		}
	}

	// The queries start only once the writer's first update has returned,
	// so the epoch has advanced however the two goroutines are scheduled;
	// the writer keeps advancing it while they run.
	stop := make(chan struct{})
	firstUpdate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			up := parsge.EdgeUpdate{From: 0, To: 1, Remove: i%2 == 0}
			_, err := svc.Update(context.Background(), []parsge.EdgeUpdate{up})
			if i == 0 {
				close(firstUpdate)
			}
			if err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	<-firstUpdate
	for _, gp := range patterns {
		for _, sem := range []parsge.Semantics{parsge.SubgraphIso, parsge.InducedIso, parsge.Homomorphism} {
			reply, err := svc.Count(context.Background(), Query{Pattern: gp, Options: parsge.Options{Semantics: sem}})
			if err != nil {
				t.Fatal(err)
			}
			res := reply.Result
			if reply.Class == classUnset || res.Epoch != reply.ClassEpoch {
				t.Fatalf("class %v at epoch %d, run answered at epoch %d", reply.Class, reply.ClassEpoch, res.Epoch)
			}
			at := full
			if res.Epoch%2 == 1 {
				at = cut
			}
			if want := testutil.BruteCountSem(gp, at, sem); res.Matches != want {
				t.Fatalf("%v at epoch %d: %d matches, oracle %d", sem, res.Epoch, res.Matches, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := svc.Stats(); st.EstimateHits != 0 {
		t.Fatalf("%d estimate-cache hits; the test needs every estimate fresh", st.EstimateHits)
	}
	if tgt.Epoch() == 0 {
		t.Fatal("the writer never advanced the epoch")
	}
}

// TestCancelledStreamNotMispredicted: a client that cancels a
// predicted-small stream truncates its run, and the library reports
// that truncation as TimedOut — but the cost did not outgrow the
// prediction, so it must not count as MispredictSmall.
func TestCancelledStreamNotMispredicted(t *testing.T) {
	_, svc, gp := blockingWorld(t, RouterConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches, end, err := svc.Stream(ctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches
	cancel()
	for range matches {
	}
	e := <-end
	if e.Err != nil || !e.Result.TimedOut {
		t.Fatalf("cancelled stream ended with err=%v timedOut=%v, want a truncated result", e.Err, e.Result.TimedOut)
	}
	st := svc.Stats()
	if st.Sequential != 1 {
		t.Fatalf("Sequential = %d, want the stream admitted small", st.Sequential)
	}
	if st.MispredictSmall != 0 {
		t.Fatalf("MispredictSmall = %d after a client cancellation, want 0", st.MispredictSmall)
	}
}

// TestSlowStreamDoesNotReprice: a stream whose consumer reads slower
// than the search produces makes the run wait on the consumer, so its
// MatchTime prices the reader, not the plan. Such a run must feed no
// cost history: a later query on the same plan is still classified by
// its own domain bound, and the stream its timeout cut is no
// misprediction.
func TestSlowStreamDoesNotReprice(t *testing.T) {
	_, svc, path := blockingWorld(t, RouterConfig{})
	matches, end, err := svc.Stream(context.Background(), Query{Pattern: path, Options: parsge.Options{
		Algorithm: parsge.RIDSSIFC, Semantics: parsge.Homomorphism, Timeout: 500 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for range matches {
		time.Sleep(2 * time.Millisecond)
	}
	e := <-end
	if e.Err != nil || !e.Result.TimedOut {
		t.Fatalf("slow stream ended with err=%v timedOut=%v, want its timeout to cut it", e.Err, e.Result.TimedOut)
	}
	reply, err := svc.Count(context.Background(), Query{Pattern: star(2), Options: parsge.Options{
		Algorithm: parsge.RIDSSIFC, Semantics: parsge.Homomorphism,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reply.Result.Plan.String(), e.Result.Plan.String(); got != want {
		t.Fatalf("star ran plan %s, the stream %s: the test needs one plan bucket", got, want)
	}
	if reply.Class != ClassSmall {
		t.Fatalf("star classified %v with PredictedCost %v after a slow stream, want small", reply.Class, reply.PredictedCost)
	}
	if st := svc.Stats(); st.MispredictSmall != 0 {
		t.Fatalf("MispredictSmall = %d after a slow consumer's stream, want 0", st.MispredictSmall)
	}
}
