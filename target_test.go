package parsge

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"parsge/internal/ri"
	"parsge/internal/testutil"
)

func TestNewTargetNil(t *testing.T) {
	if _, err := NewTarget(nil, TargetOptions{}); err == nil {
		t.Fatal("nil target accepted")
	}
}

// hardInstance builds an unlabeled instance big enough that a full
// enumeration takes well over a second — room for cancellation to land
// mid-search.
func hardInstance(t testing.TB) (gp, gt *Graph) {
	t.Helper()
	return testutil.RandomInstance(3, testutil.InstanceOptions{
		TargetNodes:  300,
		TargetEdges:  9000,
		PatternNodes: 8,
		NodeLabels:   1,
		Extract:      true,
	})
}

// TestTargetConcurrentQueries exercises one shared *Target from many
// goroutines with a mix of algorithms and worker counts; run under
// -race this is the session's concurrency-safety test.
func TestTargetConcurrentQueries(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tgt.Count(context.Background(), gp, Options{})
	if err != nil || want == 0 {
		t.Fatalf("baseline: %d, %v", want, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algs := []Algorithm{RI, RIDS, RIDSSIFC, Auto, VF2, LAD}
			for i := 0; i < 4; i++ {
				opts := Options{Algorithm: algs[(g+i)%len(algs)], Workers: g % 3}
				got, err := tgt.Count(context.Background(), gp, opts)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					t.Errorf("goroutine %d (%v): %d matches, want %d", g, opts.Algorithm, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTargetCancelPrompt verifies the acceptance contract: a long
// search terminates promptly after ctx cancellation, reporting TimedOut
// with Matches as a lower bound.
func TestTargetCancelPrompt(t *testing.T) {
	gp, gt := hardInstance(t)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := tgt.Enumerate(ctx, gp, Options{Algorithm: RI, Workers: workers})
			done <- outcome{res, err}
		}()
		time.Sleep(30 * time.Millisecond)
		cancelled := time.Now()
		cancel()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if elapsed := time.Since(cancelled); elapsed > 500*time.Millisecond {
				t.Fatalf("workers=%d: returned %v after cancel, want prompt (≲100ms)", workers, elapsed)
			}
			if !o.res.TimedOut {
				t.Skipf("workers=%d: search finished before cancellation; environment too fast", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: cancelled search never returned", workers)
		}
	}
}

func TestTargetTimeoutComposesWithCtx(t *testing.T) {
	gp, gt := hardInstance(t)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Enumerate(context.Background(), gp, Options{Algorithm: RI, Timeout: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skip("instance finished before the timeout fired; environment too fast")
	}
}

func TestEnumerateBatchAgreesWithSingles(t *testing.T) {
	_, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes: 80, TargetEdges: 500, PatternNodes: 5, NodeLabels: 3, Extract: true,
	})
	rng := rand.New(rand.NewSource(99))
	var patterns []*Graph
	for len(patterns) < 9 {
		patterns = append(patterns, testutil.ExtractPattern(rng, gt, 4+len(patterns)%3))
	}
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := tgt.EnumerateBatch(context.Background(), patterns, Options{Algorithm: RIDSSIFC})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(patterns) {
		t.Fatalf("%d results for %d patterns", len(results), len(patterns))
	}
	for i, gp := range patterns {
		want, err := tgt.Count(context.Background(), gp, Options{Algorithm: RIDSSIFC})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Matches != want {
			t.Errorf("pattern %d: batch %d matches, single %d", i, results[i].Matches, want)
		}
	}
}

func TestEnumerateBatchErrors(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty batch: no results, no error.
	if res, err := tgt.EnumerateBatch(context.Background(), nil, Options{}); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	// One bad pattern must not poison its neighbors.
	results, err := tgt.EnumerateBatch(context.Background(), []*Graph{gp, nil, gp}, Options{})
	if err == nil {
		t.Fatal("nil pattern in batch produced no error")
	}
	if results[0].Matches == 0 || results[2].Matches == 0 {
		t.Fatalf("healthy patterns starved by failing one: %+v", results)
	}
	if results[1].Matches != 0 {
		t.Fatal("failed pattern reported matches")
	}
}

func TestEnumerateBatchCancellation(t *testing.T) {
	gp, gt := hardInstance(t)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	patterns := []*Graph{gp, gp, gp, gp}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := tgt.EnumerateBatch(ctx, patterns, Options{Algorithm: RI})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.TimedOut {
			t.Errorf("pattern %d: pre-cancelled batch not marked TimedOut", i)
		}
	}
}

// TestEnumerateBatchMidCancel cancels a wide batch shortly after it
// starts: every slot — patterns aborted mid-search AND patterns the
// cancelled pool never popped — must read as TimedOut, never as a
// completed zero-match result.
func TestEnumerateBatchMidCancel(t *testing.T) {
	gp, gt := hardInstance(t)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]*Graph, 16)
	for i := range patterns {
		patterns[i] = gp // each takes seconds alone; 16 cannot finish in 30ms
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	results, err := tgt.EnumerateBatch(ctx, patterns, Options{Algorithm: RI, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.TimedOut {
			t.Errorf("pattern %d: cancelled batch slot not marked TimedOut (Matches=%d)", i, r.Matches)
		}
	}
}

// TestTargetStreamCancelTearsDown abandons a stream mid-consumption:
// cancelling the context must close the channel and let the producer
// goroutine exit even though nobody drains the remaining matches — the
// leak the pre-session API documented.
func TestTargetStreamCancelTearsDown(t *testing.T) {
	gp, gt := hardInstance(t)
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	matches, done := tgt.EnumerateStream(ctx, gp, Options{Algorithm: RI})
	// Take at most one match, then walk away without draining.
	select {
	case <-matches:
	case <-time.After(5 * time.Second):
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer did not exit after ctx cancellation")
	}
	// The channel must be closed (drainable) after done reports.
	for range matches {
	}
	// Give exited goroutines a moment to be reaped, then sanity-check we
	// did not leave a worker pool behind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before stream, %d after teardown", before, n)
	}
}

func TestTargetStreamDrainToCompletion(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tgt.Count(context.Background(), gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matches, done := tgt.EnumerateStream(context.Background(), gp, Options{Workers: 4})
	var got int64
	for range matches {
		got++
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed %d matches, want %d", got, want)
	}
}

func TestTargetSkipLabelIndexAgrees(t *testing.T) {
	gp, gt := testutil.RandomInstance(21, testutil.InstanceOptions{
		TargetNodes: 50, TargetEdges: 300, PatternNodes: 4, NodeLabels: 4, Extract: true,
	})
	indexed, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.ReleaseIndex() || plain.HasIndex() {
		t.Fatal("ReleaseIndex left the target indexed")
	}
	for _, alg := range []Algorithm{RI, RIDS, RIDSSIFC, LAD} {
		a, err := indexed.Count(context.Background(), gp, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Count(context.Background(), gp, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%v: indexed %d vs plain %d matches", alg, a, b)
		}
	}
}

func TestTargetAutoResolution(t *testing.T) {
	// The Auto choice is cached at NewTarget and must match what
	// chooseAlgorithm derives from the same graph.
	for _, gt := range []*Graph{gridTarget(), (&Builder{}).MustBuild()} {
		tgt, err := NewTarget(gt, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tgt.state.Load().resolveAlgorithm(Auto), chooseAlgorithm(Auto, gt); got != want {
			t.Fatalf("cached auto algorithm %v, chooseAlgorithm says %v", got, want)
		}
		if got := tgt.state.Load().resolveAlgorithm(VF2); got != VF2 {
			t.Fatalf("explicit algorithm rewritten to %v", got)
		}
	}
}

func TestAutoWorkerCount(t *testing.T) {
	// Narrow search: a single root candidate clamps the pool to one
	// worker regardless of core count.
	narrowP := NewBuilder(1, 0)
	narrowP.AddNode(7)
	narrowT := NewBuilder(3, 0)
	narrowT.AddNode(7)
	narrowT.AddNode(8)
	narrowT.AddNode(8)
	prep, err := ri.Prepare(narrowP.MustBuild(), narrowT.MustBuild(), ri.Options{Variant: ri.VariantRIDS})
	if err != nil {
		t.Fatal(err)
	}
	if got := autoWorkerCount(prep); got != 1 {
		t.Fatalf("single-root instance sized pool to %d, want 1", got)
	}

	// Wide search: hundreds of root candidates cap at GOMAXPROCS.
	wideP := NewBuilder(1, 0)
	wideP.AddNode(7)
	wideT := NewBuilder(500, 0)
	for i := 0; i < 500; i++ {
		wideT.AddNode(7)
	}
	prep, err = ri.Prepare(wideP.MustBuild(), wideT.MustBuild(), ri.Options{Variant: ri.VariantRI})
	if err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if want > 500 {
		want = 500
	}
	if got := autoWorkerCount(prep); got != want {
		t.Fatalf("wide instance sized pool to %d, want %d (GOMAXPROCS cap)", got, want)
	}

	// Zero roots (empty target) still yields a valid pool of one.
	prep, err = ri.Prepare(wideP.MustBuild(), (&Builder{}).MustBuild(), ri.Options{Variant: ri.VariantRI})
	if err != nil {
		t.Fatal(err)
	}
	if got := autoWorkerCount(prep); got != 1 {
		t.Fatalf("empty target sized pool to %d, want 1", got)
	}
}

// TestSessionStats: every query path — one-shot, batch item, stream —
// must fold into Target.Stats(), and plan-reporting queries must land in
// the histogram bucket their Result.Plan renders as.
func TestSessionStats(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := tgt.Enumerate(ctx, gp, Options{Algorithm: RIDSSIFC})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.EnumerateBatch(ctx, []*Graph{gp, gp}, Options{Algorithm: RIDSSIFC}); err != nil {
		t.Fatal(err)
	}
	matches, done := tgt.EnumerateStream(ctx, gp, Options{Algorithm: RI})
	for range matches {
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := tgt.Stats()
	if st.Queries != 4 {
		t.Fatalf("Queries = %d, want 4 (one-shot + 2 batch items + stream)", st.Queries)
	}
	if st.Matches != 4*res.Matches {
		t.Fatalf("Matches = %d, want %d", st.Matches, 4*res.Matches)
	}
	// Three RIDSSIFC runs report a plan, the plain-RI stream does not.
	if st.Plans.Planned != 3 || st.Plans.NoPlan != 1 {
		t.Fatalf("histogram planned/noplan = %d/%d, want 3/1", st.Plans.Planned, st.Plans.NoPlan)
	}
	b := st.Plans.Bucket(res.Plan.String())
	if b.Count != 3 {
		t.Fatalf("bucket %q count = %d, want 3 (histogram: %+v)", res.Plan.String(), b.Count, st.Plans)
	}
	if b.DomainAfterUnary != 3*int64(res.Plan.DomainAfterUnary) || b.DomainFinal != 3*int64(res.Plan.DomainFinal) {
		t.Fatalf("bucket domain sums inconsistent: %+v vs plan %+v", b, res.Plan)
	}
	if st.PreprocTime <= 0 || st.MatchTime < 0 {
		t.Fatalf("timing aggregates not recorded: %+v", st)
	}
}

// TestStreamEndTruncation: EnumerateStreamResult's terminal event must
// report a complete stream as such, and a cancelled stream as truncated
// (Result.TimedOut) — delivered strictly after the matches channel
// closed, so "end received" implies "drain terminates".
func TestStreamEndTruncation(t *testing.T) {
	gp, gt := squarePattern(), gridTarget()
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Complete stream.
	matches, end := tgt.EnumerateStreamResult(context.Background(), gp, Options{})
	var got int64
	for range matches {
		got++
	}
	e := <-end
	if e.Err != nil || e.Result.TimedOut {
		t.Fatalf("complete stream reported err=%v truncated=%v", e.Err, e.Result.TimedOut)
	}
	if e.Result.Matches != got {
		t.Fatalf("terminal Result.Matches = %d, streamed %d", e.Result.Matches, got)
	}

	// Cancelled stream: a world with far more matches than the channel
	// buffer, so the producer is genuinely mid-flight when we walk away
	// (the square-in-grid stream above fits in the buffer and would
	// complete before the cancel could truncate it).
	cb := NewBuilder(12, 12*11)
	cb.AddNodes(12)
	for i := int32(0); i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			cb.AddEdgeBoth(i, j, NoLabel)
		}
	}
	pb := NewBuilder(3, 2)
	pb.AddNodes(3)
	pb.AddEdge(0, 1, NoLabel)
	pb.AddEdge(1, 2, NoLabel)
	big, err := NewTarget(cb.MustBuild(), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	matches, end = big.EnumerateStreamResult(ctx, pb.MustBuild(), Options{Semantics: Homomorphism})
	<-matches
	cancel()
	select {
	case e = <-end:
	case <-time.After(10 * time.Second):
		t.Fatal("terminal event never arrived after cancellation")
	}
	if e.Err != nil {
		t.Fatalf("cancelled stream errored: %v", e.Err)
	}
	if !e.Result.TimedOut {
		t.Fatal("cancelled stream not reported as truncated")
	}
	// The matches channel is closed by the time the end event exists.
	for range matches {
	}
}

// TestCanonicalPatternExposed: the public wrappers agree with each other
// and are relabeling-invariant (the deep property tests live in
// internal/graph and internal/service).
func TestCanonicalPatternExposed(t *testing.T) {
	gp := squarePattern()
	enc, perm := CanonicalPattern(gp)
	if len(perm) != gp.NumNodes() || len(enc) == 0 {
		t.Fatalf("CanonicalPattern: enc %d bytes, perm %d entries", len(enc), len(perm))
	}
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 4; k++ {
		twin := testutil.PermuteGraph(rng, gp)
		enc2, _ := CanonicalPattern(twin)
		if string(enc2) != string(enc) || CanonicalHash(twin) != CanonicalHash(gp) {
			t.Fatal("relabeled pattern changed the canonical form")
		}
	}
}
