package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// censusOracle compares a service census result against the brute-force
// oracle on the soak world's target.
func censusOracle(t *testing.T, w *soakWorld, res parsge.CensusResult, k int) {
	t.Helper()
	total, classes := testutil.BruteCensus(w.gt, k)
	if res.TimedOut {
		t.Fatalf("k=%d: census truncated without cancellation", k)
	}
	if res.Subgraphs != total {
		t.Fatalf("k=%d: %d subgraphs, oracle %d", k, res.Subgraphs, total)
	}
	if len(res.Classes) != len(classes) {
		t.Fatalf("k=%d: %d classes, oracle %d", k, len(res.Classes), len(classes))
	}
	for _, c := range res.Classes {
		if classes[string(c.Encoding)] != c.Count {
			t.Fatalf("k=%d: class count %d, oracle %d", k, c.Count, classes[string(c.Encoding)])
		}
	}
}

// TestServiceCensus: the census path end to end — oracle-correct
// counts, the per-K cache, and the admission counters.
func TestServiceCensus(t *testing.T) {
	w := buildSoakWorld(t, 91)
	_, svc := soloRouter(t, w.tgt, RouterConfig{Workers: 4, ParallelWorkers: 2})
	ctx := context.Background()

	reply, err := svc.Census(ctx, CensusRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reply.CacheHit || reply.Shared {
		t.Fatal("first census reported cached/shared")
	}
	censusOracle(t, w, reply.Result, 3)

	again, err := svc.Census(ctx, CensusRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("second identical census missed the cache")
	}
	if again.Result.Subgraphs != reply.Result.Subgraphs {
		t.Fatal("cached census differs from the original")
	}

	// A different K is its own entry.
	r4, err := svc.Census(ctx, CensusRequest{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit {
		t.Fatal("census at a new K reported a cache hit")
	}
	censusOracle(t, w, r4.Result, 4)

	st := svc.Stats()
	if st.Census != 3 {
		t.Fatalf("Stats.Census = %d, want 3", st.Census)
	}
	if st.Parallel != 2 {
		t.Fatalf("Stats.Parallel = %d, want 2 (census is always large)", st.Parallel)
	}
	if st.CensusCacheHits != 1 || st.CensusCacheMisses != 2 {
		t.Fatalf("census cache hits/misses = %d/%d, want 1/2", st.CensusCacheHits, st.CensusCacheMisses)
	}
	// The runs landed in the plan histogram funnel.
	if b := st.Session.Plans.Bucket("census:k=3"); b.Count != 1 {
		t.Fatalf("plan bucket census:k=3 count %d, want 1", b.Count)
	}
	if b := st.Session.Plans.Bucket("census:k=4"); b.Count != 1 {
		t.Fatalf("plan bucket census:k=4 count %d, want 1", b.Count)
	}
}

// TestServiceCensusSingleflight: concurrent identical censuses run once
// and share; followers report Shared or CacheHit, never a second run.
func TestServiceCensusSingleflight(t *testing.T) {
	w := buildSoakWorld(t, 92)
	_, svc := soloRouter(t, w.tgt, RouterConfig{Workers: 4, ParallelWorkers: 2})
	const clients = 8
	var wg sync.WaitGroup
	replies := make([]CensusReply, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = svc.Census(context.Background(), CensusRequest{K: 4})
		}(i)
	}
	wg.Wait()
	leaders := 0
	for i := range replies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		censusOracle(t, w, replies[i].Result, 4)
		if !replies[i].CacheHit && !replies[i].Shared {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders ran, want 1", leaders)
	}
	if st := svc.Stats(); st.Parallel != 1 {
		t.Fatalf("Stats.Parallel = %d, want 1 (one admitted run)", st.Parallel)
	}
}

// TestServiceCensusValidationAndClose: bad K is rejected; a draining
// service refuses censuses with ErrClosed.
func TestServiceCensusValidationAndClose(t *testing.T) {
	w := buildSoakWorld(t, 93)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	for _, k := range []int{0, 1, 7, -2} {
		if _, err := svc.Census(context.Background(), CensusRequest{K: k}); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Census(context.Background(), CensusRequest{K: 3}); err != ErrClosed {
		t.Fatalf("census after Close: %v, want ErrClosed", err)
	}
}

// TestServiceCensusCancelled: a truncated census is returned to its
// caller but never cached.
func TestServiceCensusCancelled(t *testing.T) {
	w := buildSoakWorld(t, 94)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reply, err := svc.Census(ctx, CensusRequest{K: 4})
	if err != nil {
		// ctx.Err() surfacing directly is also acceptable here.
		if ctx.Err() == nil {
			t.Fatal(err)
		}
	} else if !reply.Result.TimedOut {
		t.Fatal("census under a cancelled context reported complete")
	}
	if _, ok := svc.censusCache.get(4, 0, true); ok {
		t.Fatal("truncated census was cached")
	}
}

// TestHTTPCensus: the census endpoint end to end — counts held to the
// oracle, representatives resubmittable as query patterns, the cache
// hit on the second request, and the error statuses.
func TestHTTPCensus(t *testing.T) {
	w := buildSoakWorld(t, 95)
	r, _ := soloRouter(t, w.tgt, RouterConfig{})
	table := identityTable(w.gt)
	handler := NewRouterServer(r, table)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	post := func(body map[string]any) *http.Response {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+soloPath+"/census", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	var rec censusResponse
	resp := post(map[string]any{"k": 3, "top": -1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("census: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	total, classes := testutil.BruteCensus(w.gt, 3)
	if rec.Subgraphs != total || rec.ClassesTotal != len(classes) {
		t.Fatalf("census: %d subgraphs in %d classes, oracle %d in %d",
			rec.Subgraphs, rec.ClassesTotal, total, len(classes))
	}
	var sum int64
	for _, c := range rec.Classes {
		sum += c.Count
	}
	if sum != total {
		t.Fatalf("class counts sum to %d, want %d", sum, total)
	}

	// Each representative is a valid GFF pattern; resubmitted under
	// induced semantics it must find at least its counted occurrences.
	c0 := rec.Classes[0]
	if c0.Pattern == "" || !strings.Contains(c0.Pattern, "#motif-0") {
		t.Fatalf("representative pattern not serialized: %q", c0.Pattern)
	}
	qresp, err := postQuery(t, ts.URL+soloPath, map[string]any{"pattern": c0.Pattern, "semantics": "induced"})
	if err != nil {
		t.Fatal(err)
	}
	var qrec struct {
		Matches int64 `json:"matches"`
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("resubmitted representative: %s", qresp.Status)
	}
	if err := json.NewDecoder(qresp.Body).Decode(&qrec); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qrec.Matches < c0.Count {
		t.Fatalf("representative matched %d times, census counted %d", qrec.Matches, c0.Count)
	}

	// Second request: served from the census cache.
	resp = post(map[string]any{"k": 3})
	var rec2 censusResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rec2.CacheHit {
		t.Fatal("second census not a cache hit")
	}

	// top caps the classes shown without touching the totals.
	resp = post(map[string]any{"k": 3, "top": 1})
	var rec3 censusResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec3); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec3.ClassesShown > 1 || rec3.ClassesTotal != rec.ClassesTotal || rec3.Subgraphs != rec.Subgraphs {
		t.Fatalf("top=1: shown %d of %d, subgraphs %d", rec3.ClassesShown, rec3.ClassesTotal, rec3.Subgraphs)
	}

	// Bad K or timeout → 400.
	resp = post(map[string]any{"k": 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=99: %s, want 400", resp.Status)
	}
	resp.Body.Close()
	for _, ms := range []int64{-1, 1e13} {
		resp = post(map[string]any{"k": 3, "timeout_ms": ms})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%d: %s, want 400", ms, resp.Status)
		}
		resp.Body.Close()
	}

	// Draining → 503.
	handler.StartDrain()
	resp = post(map[string]any{"k": 3})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining census: %s, want 503", resp.Status)
	}
	resp.Body.Close()
}

// buildYieldWorld builds a census target that takes a while as a
// whole: a random undirected graph on 2000 nodes of 8 labels with mean
// degree 16, whose k=3 census walks about a quarter million subgraphs.
// want is its sequential census; it also warms the Target's class memo
// (a few hundred classes), so a served census walks rather than
// canonizes.
func buildYieldWorld(t *testing.T) (tgt *parsge.Target, want parsge.CensusResult) {
	t.Helper()
	const nodes, edges = 2000, 16000
	rng := rand.New(rand.NewSource(19))
	b := graph.NewBuilder(nodes, 2*edges)
	for i := 0; i < nodes; i++ {
		b.AddNode(graph.Label(1 + rng.Intn(yieldLabels)))
	}
	for e := 0; e < edges; e++ {
		if u, v := int32(rng.Intn(nodes)), int32(rng.Intn(nodes)); u != v {
			b.AddEdgeBoth(u, v, 0)
		}
	}
	tgt, err := parsge.NewTarget(b.MustBuild(), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err = tgt.Census(context.Background(), parsge.CensusOptions{K: yieldK, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tgt, want
}

const (
	yieldK      = 3
	yieldLabels = 8
)

// labelPaths lists every 3-node path pattern over the buildYieldWorld
// labels up to isomorphism (end labels ordered): distinct cache
// identities.
func labelPaths() []*graph.Graph {
	var out []*graph.Graph
	for mid := graph.Label(1); mid <= yieldLabels; mid++ {
		for a := graph.Label(1); a <= yieldLabels; a++ {
			for c := a; c <= yieldLabels; c++ {
				b := graph.NewBuilder(3, 4)
				b.AddNode(a)
				b.AddNode(mid)
				b.AddNode(c)
				b.AddEdgeBoth(0, 1, 0)
				b.AddEdgeBoth(1, 2, 0)
				out = append(out, b.MustBuild())
			}
		}
	}
	return out
}

// sameCensus reports two census results agree class by class.
func sameCensus(a, b parsge.CensusResult) bool {
	if a.Subgraphs != b.Subgraphs || len(a.Classes) != len(b.Classes) {
		return false
	}
	m := make(map[string]int64, len(a.Classes))
	for _, c := range a.Classes {
		m[string(c.Encoding)] = c.Count
	}
	for _, c := range b.Classes {
		if m[string(c.Encoding)] != c.Count {
			return false
		}
	}
	return true
}

// TestCensusYieldsToSmallQueries: on a two-token router a census takes
// one token, so a stream of distinct cold one-token queries runs beside
// it and none of them queues; a census holding both tokens would make
// each wait the whole run out. The census still equals the sequential
// run, and after Close no token is held and no goroutine is left
// behind. Classify pins every query to one token, so the test measures
// admission, not the cost model's verdicts. The assertions count
// queues, not milliseconds; a census that ends before any query
// completes beside it shows nothing, and the test then skips.
func TestCensusYieldsToSmallQueries(t *testing.T) {
	tgt, want := buildYieldWorld(t)
	patterns := labelPaths()
	base := runtime.NumGoroutine()
	r, svc := soloRouter(t, tgt, RouterConfig{
		Workers:  2,
		Classify: func(*parsge.Graph, parsge.Options) bool { return false },
	})
	ctx := context.Background()

	type censusOut struct {
		reply CensusReply
		err   error
	}
	done := make(chan censusOut, 1)
	go func() {
		reply, err := r.Census(ctx, soloTarget, CensusRequest{K: yieldK})
		done <- censusOut{reply, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Parallel == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the census was never admitted")
		}
	}
	if held := r.Stats().TokensInUse; held > 1 {
		t.Fatalf("census holds %d of 2 tokens, want 1", held)
	}

	var out censusOut
	finished := false
	beside := 0 // queries answered while the census still ran
	for i := 0; i < len(patterns) && !finished; i++ {
		reply, err := r.Count(ctx, soloTarget, Query{Pattern: patterns[i]})
		if err != nil {
			t.Fatal(err)
		}
		if reply.CacheHit || reply.Shared || reply.Large {
			t.Fatalf("query %d: cache hit %v, shared %v, large %v; want a cold one-token run",
				i, reply.CacheHit, reply.Shared, reply.Large)
		}
		if reply.QueueWait > 0 {
			t.Errorf("query %d queued %v for admission beside the census", i, reply.QueueWait)
		}
		select {
		case out = <-done:
			finished = true
		default:
			beside++
		}
	}
	if !finished {
		out = <-done
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.reply.Result.TimedOut || !sameCensus(out.reply.Result, want) {
		t.Fatalf("served census (%d subgraphs, truncated %v) differs from the sequential run (%d)",
			out.reply.Result.Subgraphs, out.reply.Result.TimedOut, want.Subgraphs)
	}

	closeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := r.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TokensInUse != 0 || st.Queued != 0 {
		t.Fatalf("after Close: %d tokens held, %d queued", st.TokensInUse, st.Queued)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the router", n, base)
	}
	if beside == 0 {
		t.Skipf("the census (%v) ended before a query was answered beside it", out.reply.Result.Duration)
	}
	t.Logf("census %v: %d queries answered beside it, none queued", out.reply.Result.Duration, beside)
}
