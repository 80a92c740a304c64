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
	for _, c := range []struct {
		name   string
		gp, gt *Graph
		opts   Options
	}{
		{"RI", gp, gt, Options{Algorithm: RI}},
		// The hom 7-leaf star over K12 (about 2.3e8 embeddings): every
		// leaf has the center as its mapped parent, so RI-DS-SI-FC polls
		// from the row loop.
		{"RI-DS-SI-FC", starGraph(7), cliqueGraph(12), Options{Algorithm: RIDSSIFC, Semantics: Homomorphism}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tgt, err := NewTarget(c.gt, TargetOptions{})
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
				opts := c.opts
				opts.Workers = workers
				go func() {
					res, err := tgt.Enumerate(ctx, c.gp, opts)
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
		})
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

// TestSessionStats: every query must fold into Target.Stats(), and
// plan-reporting queries must land in the histogram bucket their
// Result.Plan renders as.
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
	for _, alg := range []Algorithm{RIDSSIFC, RIDSSIFC, RI} {
		if _, err := tgt.Enumerate(ctx, gp, Options{Algorithm: alg}); err != nil {
			t.Fatal(err)
		}
	}

	st := tgt.Stats()
	if st.Queries != 4 {
		t.Fatalf("Queries = %d, want 4", st.Queries)
	}
	if st.Matches != 4*res.Matches {
		t.Fatalf("Matches = %d, want %d", st.Matches, 4*res.Matches)
	}
	// Three RIDSSIFC runs report a plan, the plain-RI run does not.
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
