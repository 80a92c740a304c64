package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/graphio"
	"parsge/internal/testutil"
)

// identityTable pre-interns the decimal spellings of programmatic
// numeric labels ("1" → 1, ...), the same convention cmd/sgeserve uses
// for -collection targets, so patterns serialized with Spell intern back
// to the ids the target carries.
func identityTable(gt *graph.Graph) *graphio.LabelTable {
	table := graphio.NewLabelTable()
	for l := 1; l <= int(gt.MaxNodeLabel()); l++ {
		table.Intern(strconv.Itoa(l))
	}
	return table
}

func patternText(t *testing.T, gp *graph.Graph, table *graphio.LabelTable) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, "p", gp, table); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postQuery(t *testing.T, url string, body map[string]any) (*http.Response, error) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return http.Post(url+"/query", "application/json", bytes.NewReader(b))
}

// TestHTTPEndpoints: the full client journey over real HTTP — counts,
// mappings, streams, health and stats — held to the brute-force oracle.
func TestHTTPEndpoints(t *testing.T) {
	w := buildSoakWorld(t, 55)
	svc, err := New(Config{Target: w.tgt})
	if err != nil {
		t.Fatal(err)
	}
	table := identityTable(w.gt)
	handler := NewServer(svc, table)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	for pi, gp := range w.patterns {
		text := patternText(t, gp, table)
		for _, sem := range []string{"iso", "induced", "hom"} {
			want := w.oracle[pi][map[string]parsge.Semantics{
				"iso": parsge.SubgraphIso, "induced": parsge.InducedIso, "hom": parsge.Homomorphism,
			}[sem]]
			resp, err := postQuery(t, ts.URL, map[string]any{"pattern": text, "semantics": sem})
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Matches  int64  `json:"matches"`
				CacheHit bool   `json:"cache_hit"`
				Plan     string `json:"plan"`
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pattern %d %s: %s", pi, sem, resp.Status)
			}
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if rec.Matches != want {
				t.Fatalf("pattern %d %s: HTTP count %d, oracle %d", pi, sem, rec.Matches, want)
			}
		}
	}

	// Mappings round trip: every mapping valid against the target.
	gp := w.patterns[0]
	want := w.oracle[0][parsge.SubgraphIso]
	resp, err = postQuery(t, ts.URL, map[string]any{"pattern": patternText(t, gp, table), "mappings": true})
	if err != nil {
		t.Fatal(err)
	}
	var mrec struct {
		Matches  int64     `json:"matches"`
		Mappings [][]int32 `json:"mappings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mrec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if int64(len(mrec.Mappings)) != want {
		t.Fatalf("mappings: got %d, oracle %d", len(mrec.Mappings), want)
	}
	for _, m := range mrec.Mappings {
		verifyMapping(t, gp, w.gt, m, parsge.SubgraphIso)
	}

	// Stream round trip: NDJSON lines then a terminal record.
	resp, err = postQuery(t, ts.URL, map[string]any{"pattern": patternText(t, gp, table), "stream": true})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var streamed int64
	sawDone := false
	for sc.Scan() {
		var line struct {
			Mapping []int32 `json:"mapping"`
			Done    bool    `json:"done"`
			Matches int64   `json:"matches"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			sawDone = true
			if line.Matches != want || streamed != want {
				t.Fatalf("stream: %d lines, terminal %d, oracle %d", streamed, line.Matches, want)
			}
			break
		}
		verifyMapping(t, gp, w.gt, line.Mapping, parsge.SubgraphIso)
		streamed++
	}
	resp.Body.Close()
	if !sawDone {
		t.Fatal("stream ended without terminal record")
	}

	// Stats: the histogram is populated and queries were counted. The
	// soak target is sparse, so Auto resolves to plain RI (no plan, by
	// design); one explicit domain-variant query guarantees a planned
	// execution for the histogram to show.
	resp, err = postQuery(t, ts.URL, map[string]any{"pattern": patternText(t, gp, table), "algorithm": "ridssifc", "semantics": "induced"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries == 0 || len(st.Session.Plans.Buckets) == 0 {
		t.Fatalf("stats empty after traffic: %+v", st)
	}

	// Bad inputs are 400s.
	for name, body := range map[string]map[string]any{
		"no pattern":    {"pattern": ""},
		"bad semantics": {"pattern": patternText(t, gp, table), "semantics": "quantum"},
		"bad algorithm": {"pattern": patternText(t, gp, table), "algorithm": "bogo"},
	} {
		resp, err := postQuery(t, ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
		resp.Body.Close()
	}

	// Draining: health 503, queries refused.
	handler.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	resp, err = postQuery(t, ts.URL, map[string]any{"pattern": patternText(t, gp, table)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining query: status %s, want 503", resp.Status)
	}
	resp.Body.Close()
}

// TestHTTPOverloadStatus: admission failures map to retryable statuses
// (503 shed / 504 queue timeout), not client errors.
func TestHTTPOverloadStatus(t *testing.T) {
	svc, gp := blockingWorld(t, Config{
		Workers:      1,
		MaxQueue:     1,
		QueueTimeout: 300 * time.Millisecond,
		Classify:     func(*parsge.Graph, parsge.Options) bool { return false },
	})
	table := graphio.NewLabelTable()
	ts := httptest.NewServer(NewServer(svc, table))
	defer ts.Close()
	text := patternText(t, gp, table)

	// Hold the only token with an undrained stream.
	sctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches, end, err := svc.Stream(sctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches

	// Occupy the queue slot with a second HTTP query (will 504)...
	q2 := make(chan int, 1)
	go func() {
		resp, err := postQuery(t, ts.URL, map[string]any{"pattern": text, "semantics": "iso"})
		if err != nil {
			q2 <- 0
			return
		}
		resp.Body.Close()
		q2 <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...so the third is shed with 503.
	resp, err := postQuery(t, ts.URL, map[string]any{"pattern": text, "semantics": "induced"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shed query: status %s, want 503", resp.Status)
	}
	resp.Body.Close()
	if code := <-q2; code != http.StatusGatewayTimeout {
		t.Errorf("queued query: status %d, want 504", code)
	}
	cancel()
	for range matches {
	}
	<-end
}

// TestHTTPDeclaredNodeCountBounded: a pattern's declared node count is
// client input, so a few bytes claiming a hundred million nodes must be
// refused with a 400 without sizing any allocation by that claim (it
// once preallocated 381 MB, and a two-billion claim was a fatal out of
// memory no handler could recover).
func TestHTTPDeclaredNodeCountBounded(t *testing.T) {
	gt := clique(4)
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	handler := NewServer(svc, graphio.NewLabelTable())
	body, err := json.Marshal(map[string]any{"pattern": "#p\n100000000\n"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing the pattern allocated %d bytes, want at most 1 MB", got)
	}
}

// TestHTTPClientDisconnectTeardown is the satellite regression test: a
// client that walks away mid-stream must tear the enumeration down
// promptly — admission tokens released, no goroutine left behind
// (goleak-style before/after counting) — through nothing but its
// connection dropping.
func TestHTTPClientDisconnectTeardown(t *testing.T) {
	svc, gp := blockingWorld(t, Config{Workers: 2})
	table := graphio.NewLabelTable()
	ts := httptest.NewServer(NewServer(svc, table))
	defer ts.Close()
	text := patternText(t, gp, table)

	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(map[string]any{"pattern": text, "semantics": "hom", "stream": true})
		req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read one line — proof the enumeration is producing — then
		// hang up without draining the thousands still pending.
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadString('\n')
		if err != nil || !strings.Contains(line, "mapping") {
			t.Fatalf("iteration %d: first stream line: %q, %v", i, line, err)
		}
		resp.Body.Close() // the disconnect
	}

	// Teardown must be prompt: tokens drain to zero and the goroutine
	// count returns to (about) the baseline. The slack absorbs netpoll
	// and keep-alive goroutines owned by the HTTP stack, not by us.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		st := svc.Stats()
		if st.TokensInUse == 0 && runtime.NumGoroutine() <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("leak after disconnects: tokens=%d goroutines=%d (baseline %d)\n%s",
				st.TokensInUse, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.Stats(); st.Queries != 8 {
		t.Errorf("Queries = %d, want 8", st.Queries)
	}
	// The service itself must still be fully functional.
	r, err := svc.Count(context.Background(), Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.SubgraphIso}})
	if err != nil || r.Result.Matches == 0 {
		t.Fatalf("service wedged after disconnects: %v %+v", err, r.Result)
	}
}

// TestHTTPRouterEndpoints: the multi-target HTTP tree — per-target
// query and census, the update endpoint advancing the epoch and
// invalidating caches, unknown-target 404s, and the router /stats
// listing.
func TestHTTPRouterEndpoints(t *testing.T) {
	wa := buildSoakWorld(t, 61)
	wb := buildSoakWorld(t, 62)
	r := NewRouter(RouterConfig{Workers: 4})
	if err := r.AddTargetSession("alpha", wa.tgt); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTargetSession("beta", wb.tgt); err != nil {
		t.Fatal(err)
	}
	defer r.Close(context.Background())
	table := identityTable(wa.gt)
	for l := 1; l <= int(wb.gt.MaxNodeLabel()); l++ {
		table.Intern(strconv.Itoa(l))
	}
	srv := httptest.NewServer(NewRouterServer(r, table))
	defer srv.Close()

	post := func(path string, body map[string]any) (*http.Response, map[string]any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp, out
	}

	// Per-target counts match each target's own oracle.
	pa := patternText(t, wa.patterns[0], table)
	pb := patternText(t, wb.patterns[0], table)
	resp, out := post("/targets/alpha/query", map[string]any{"pattern": pa, "semantics": "iso"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha query: %d %v", resp.StatusCode, out)
	}
	if int64(out["matches"].(float64)) != wa.oracle[0][parsge.SubgraphIso] {
		t.Fatalf("alpha matches %v, oracle %d", out["matches"], wa.oracle[0][parsge.SubgraphIso])
	}
	if out["epoch"].(float64) != 0 {
		t.Fatalf("alpha epoch %v", out["epoch"])
	}
	resp, out = post("/targets/beta/query", map[string]any{"pattern": pb, "semantics": "iso"})
	if resp.StatusCode != http.StatusOK || int64(out["matches"].(float64)) != wb.oracle[0][parsge.SubgraphIso] {
		t.Fatalf("beta query: %d %v (oracle %d)", resp.StatusCode, out, wb.oracle[0][parsge.SubgraphIso])
	}

	// Census per target.
	resp, out = post("/targets/alpha/census", map[string]any{"k": 3})
	if resp.StatusCode != http.StatusOK || out["subgraphs"].(float64) <= 0 {
		t.Fatalf("alpha census: %d %v", resp.StatusCode, out)
	}

	// Unknown target: 404.
	resp, _ = post("/targets/nope/query", map[string]any{"pattern": pa})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown target status %d", resp.StatusCode)
	}

	// Update alpha: remove one existing arc (and its reverse, the soak
	// target is undirected-encoded) — epoch 1, then a re-query reflects
	// the mutated graph and misses the stale cache.
	e := wa.gt.Edges()[0]
	lab := ""
	if e.Label != 0 {
		lab = table.Name(e.Label)
	}
	ups := []map[string]any{
		{"from": e.From, "to": e.To, "label": lab, "remove": true},
		{"from": e.To, "to": e.From, "label": lab, "remove": true},
	}
	resp, out = post("/targets/alpha/update", map[string]any{"updates": ups})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %v", resp.StatusCode, out)
	}
	if out["epoch"].(float64) != 1 || out["applied"].(float64) == 0 {
		t.Fatalf("update reply %v", out)
	}
	want := countOracle(t, wa.patterns[0], wa.tgt.Graph(), parsge.SubgraphIso)
	resp, out = post("/targets/alpha/query", map[string]any{"pattern": pa, "semantics": "iso"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-update query: %d %v", resp.StatusCode, out)
	}
	if out["epoch"].(float64) != 1 || out["cache_hit"].(bool) {
		t.Fatalf("post-update reply %v", out)
	}
	if int64(out["matches"].(float64)) != want {
		t.Fatalf("post-update matches %v, oracle %d", out["matches"], want)
	}

	// Malformed updates: empty batch and out-of-range endpoint.
	resp, _ = post("/targets/alpha/update", map[string]any{"updates": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	resp, _ = post("/targets/alpha/update", map[string]any{"updates": []map[string]any{{"from": 0, "to": 99999}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range status %d", resp.StatusCode)
	}

	// Router /stats: both targets listed with their epochs.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var rstats struct {
		Targets []struct {
			Name  string `json:"Name"`
			Epoch uint64 `json:"Epoch"`
		}
		PerTarget map[string]struct {
			Queries int64
			Updates int64
		}
	}
	if err := json.NewDecoder(sresp.Body).Decode(&rstats); err != nil {
		t.Fatal(err)
	}
	if len(rstats.Targets) != 2 || rstats.Targets[0].Name != "alpha" || rstats.Targets[1].Name != "beta" {
		t.Fatalf("stats targets %+v", rstats.Targets)
	}
	if rstats.Targets[0].Epoch != 1 || rstats.Targets[1].Epoch != 0 {
		t.Fatalf("stats epochs %+v", rstats.Targets)
	}
	if rstats.PerTarget["alpha"].Updates != 1 {
		t.Fatalf("alpha updates %d", rstats.PerTarget["alpha"].Updates)
	}
}

// countOracle is BruteCountSem spelled out for post-update graphs.
func countOracle(t *testing.T, gp, gt *graph.Graph, sem parsge.Semantics) int64 {
	t.Helper()
	return testutil.BruteCountSem(gp, gt, sem)
}
