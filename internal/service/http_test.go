package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// tableSize reads the size of h's label table under the lock its
// handlers intern under.
func tableSize(h *Server) int {
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	return h.table.Size()
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
	r, _ := soloRouter(t, w.tgt, RouterConfig{})
	table := identityTable(w.gt)
	handler := NewRouterServer(r, table)
	ts := httptest.NewServer(handler)
	defer ts.Close()
	base := ts.URL + soloPath

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
			resp, err := postQuery(t, base, map[string]any{"pattern": text, "semantics": sem})
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
	resp, err = postQuery(t, base, map[string]any{"pattern": patternText(t, gp, table), "mappings": true})
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
	resp, err = postQuery(t, base, map[string]any{"pattern": patternText(t, gp, table), "stream": true})
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
	resp, err = postQuery(t, base, map[string]any{"pattern": patternText(t, gp, table), "algorithm": "ridssifc", "semantics": "induced"})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rst RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := rst.PerTarget[soloTarget]; st.Queries == 0 || len(st.Session.Plans.Buckets) == 0 {
		t.Fatalf("stats empty after traffic: %+v", rst)
	}

	// Bad inputs are 400s, and a request refused for a bad field interns
	// none of its pattern's labels into the shared table.
	unseen := "#p\n1\nnever-seen\n0\n"
	for name, body := range map[string]map[string]any{
		"no pattern":                  {"pattern": ""},
		"bad semantics":               {"pattern": patternText(t, gp, table), "semantics": "quantum"},
		"bad algorithm":               {"pattern": patternText(t, gp, table), "algorithm": "bogo"},
		"bad semantics, unseen label": {"pattern": unseen, "semantics": "bogus"},
		"bad algorithm, unseen label": {"pattern": unseen, "algorithm": "bogo"},
		"negative timeout":            {"pattern": patternText(t, gp, table), "timeout_ms": -1},
		"negative timeout, unseen":    {"pattern": unseen, "timeout_ms": -1},
		"overflowing timeout":         {"pattern": patternText(t, gp, table), "timeout_ms": int64(1e13)},
		"negative limit":              {"pattern": patternText(t, gp, table), "limit": -1},
		"negative limit, unseen":      {"pattern": unseen, "limit": -1},
	} {
		before := tableSize(handler)
		resp, err := postQuery(t, base, body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
		resp.Body.Close()
		if after := tableSize(handler); after != before {
			t.Errorf("%s: label table grew from %d to %d", name, before, after)
		}
	}

	// Draining: health 503, queries refused.
	handler.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	resp, err = postQuery(t, base, map[string]any{"pattern": patternText(t, gp, table)})
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
	r, svc, gp := blockingWorld(t, RouterConfig{
		Workers:      1,
		MaxQueue:     1,
		QueueTimeout: 300 * time.Millisecond,
		Classify:     func(*parsge.Graph, parsge.Options) bool { return false },
	})
	table := graphio.NewLabelTable()
	ts := httptest.NewServer(NewRouterServer(r, table))
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
		resp, err := postQuery(t, ts.URL+soloPath, map[string]any{"pattern": text, "semantics": "iso"})
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
	resp, err := postQuery(t, ts.URL+soloPath, map[string]any{"pattern": text, "semantics": "induced"})
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
	r, _ := soloRouter(t, tgt, RouterConfig{})
	handler := NewRouterServer(r, graphio.NewLabelTable())
	body, err := json.Marshal(map[string]any{"pattern": "#p\n100000000\n"})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, soloPath+"/query", bytes.NewReader(body)))
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
	rt, svc, gp := blockingWorld(t, RouterConfig{Workers: 2})
	table := graphio.NewLabelTable()
	ts := httptest.NewServer(NewRouterServer(rt, table))
	defer ts.Close()
	text := patternText(t, gp, table)

	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(map[string]any{"pattern": text, "semantics": "hom", "stream": true})
		req, err := http.NewRequest("POST", ts.URL+soloPath+"/query", bytes.NewReader(body))
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

// TestHTTPStalledStreamClient: a streaming client that reads one line
// and then neither reads nor closes must not hold the handler past the
// query's timeout. The stream (a 6-path over the 12-clique under
// homomorphism, about 1.9 M matches) fills the socket buffers well
// within its 300 ms timeout, so the handler blocks in Write; the write
// deadline, streamGrace past the query's deadline, must fail that Write,
// so the run ends truncated and uncached, its tokens come back and the
// handler returns. A client that keeps reading the same stream must
// still get every line its timeout let through and then the terminal
// line, which reports the truncation.
func TestHTTPStalledStreamClient(t *testing.T) {
	rt, svc, _ := blockingWorld(t, RouterConfig{Workers: 2})
	pb := graph.NewBuilder(6, 5)
	pb.AddNodes(6)
	for i := int32(0); i < 5; i++ {
		pb.AddEdge(i, i+1, graph.NoLabel)
	}
	gp := pb.MustBuild()
	table := graphio.NewLabelTable()
	h := NewRouterServer(rt, table)
	var handlers atomic.Int32 // in flight
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlers.Add(1)
		defer handlers.Add(-1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	const timeout = 300 * time.Millisecond
	body := map[string]any{"pattern": patternText(t, gp, table), "semantics": "hom", "stream": true, "timeout_ms": timeout.Milliseconds()}
	resp, err := postQuery(t, ts.URL+soloPath, body)
	if err != nil {
		t.Fatal(err)
	}
	// The reader only counts lines, so it keeps up with the handler even
	// under the race detector.
	var lines int64
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading client: after %d lines: %v", lines, err)
	}
	resp.Body.Close()
	var end streamLine
	// A truncated stream's count is a lower bound of the full count: at
	// least every line the client got.
	if json.Unmarshal(last, &end) != nil || !end.Done || !end.Truncated || end.Matches < lines-1 || lines < 2 {
		t.Fatalf("reading client: %d lines, the last %q; want a truncated terminal line", lines, last)
	}

	start := time.Now()
	resp, err = postQuery(t, ts.URL+soloPath, body)
	if err != nil {
		t.Fatal(err)
	}
	// Deferred after ts.Close, so it runs first: a handler still blocked
	// then fails its Write, and the server can shut down.
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, "mapping") {
		t.Fatalf("first stream line: %q, %v", line, err)
	}
	// From here on the client neither reads nor closes.
	deadline := start.Add(timeout + 2*time.Second)
	for handlers.Load() != 0 || svc.Stats().TokensInUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%v after the %v timeout: %d handler(s) still running, %d token(s) in use",
				time.Since(start)-timeout, timeout, handlers.Load(), svc.Stats().TokensInUse)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.Stats(); st.CacheEntries != 0 {
		t.Fatalf("%d cache entries after a stream its client cut short, want 0", st.CacheEntries)
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

// TestHTTPUpdateBatchLimit: a batch one update over maxUpdateBatch is
// refused with 400 before anything is applied, so the epoch stays put.
func TestHTTPUpdateBatchLimit(t *testing.T) {
	tgt, err := parsge.NewTarget(clique(4), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := soloRouter(t, tgt, RouterConfig{})
	defer r.Close(context.Background())
	ups := make([]map[string]any, maxUpdateBatch+1)
	for i := range ups {
		ups[i] = map[string]any{"from": 0, "to": 1}
	}
	code, _ := serveQuery(t, NewRouterServer(r, nil), soloPath+"/update", map[string]any{"updates": ups})
	if code != http.StatusBadRequest {
		t.Fatalf("batch of %d updates: status %d, want 400", len(ups), code)
	}
	if e := tgt.Epoch(); e != 0 {
		t.Fatalf("refused batch advanced the epoch to %d", e)
	}
}

// TestHTTPBodyLimits: a body past its endpoint's MaxBytesReader bound
// (1 MiB for a query, 64 KiB for a census, 8 MiB for an update) is
// refused with 413, not 400. A query body is read whole, so one past
// 1 MiB is refused whatever it holds, while a valid one of exactly
// 1 MiB is served; the pooled buffer that body grew is dropped, not put
// back.
func TestHTTPBodyLimits(t *testing.T) {
	w := buildSoakWorld(t, 91)
	r, _ := soloRouter(t, w.tgt, RouterConfig{})
	table := identityTable(w.gt)
	h := NewRouterServer(r, table)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, soloPath+path, bytes.NewReader(body)))
		return rec
	}
	// sized pads head with filler and ends it with tail, n bytes in all.
	sized := func(head, filler, tail string, n int) []byte {
		return []byte(head + strings.Repeat(filler, n-len(head)-len(tail)) + tail)
	}
	text, err := json.Marshal(patternText(t, w.patterns[0], table))
	if err != nil {
		t.Fatal(err)
	}
	query := `{"pattern":` + string(text)
	for _, c := range []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"query value past 1 MiB", "/query", sized(query+`,"pad":"`, "x", `"}`, 1<<20+1), http.StatusRequestEntityTooLarge},
		{"query with data past 1 MiB after its value", "/query", sized(query+`}`, " ", "", 1<<20+1), http.StatusRequestEntityTooLarge},
		{"census value past 64 KiB", "/census", sized(`{"k":3,"pad":"`, "x", `"}`, 1<<16+1), http.StatusRequestEntityTooLarge},
		{"update value past 8 MiB", "/update", sized(`{"updates":[{"from":0,"to":1}],"pad":"`, "x", `"}`, 8<<20+1), http.StatusRequestEntityTooLarge},
		{"census of exactly 64 KiB", "/census", sized(`{"k":3,"pad":"`, "x", `"}`, 1<<16), http.StatusOK},
		{"unknown key padding a query to 1 MiB", "/query", sized(query+`,"pad":"`, "x", `"}`, 1<<20), http.StatusOK},
	} {
		if rec := post(c.path, c.body); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (body %.200s)", c.name, rec.Code, c.want, rec.Body)
		}
	}

	// Space padding keeps the query in the single-pass decoder's shape.
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool checked below
	rec := post("/query", sized(query+",", " ", `"semantics":"iso"}`, 1<<20))
	var out memoReply
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.Matches != w.oracle[0][parsge.SubgraphIso] {
		t.Fatalf("query of exactly 1 MiB: status %d, body %s; want %d matches", rec.Code, rec.Body, w.oracle[0][parsge.SubgraphIso])
	}
	for {
		b, ok := bufPool.Get().(*[]byte)
		if !ok {
			break
		}
		if cap(*b) > maxPooledBuf {
			t.Fatalf("the pool holds a %d-byte buffer, cap %d", cap(*b), maxPooledBuf)
		}
	}
}

// countOracle is BruteCountSem spelled out for post-update graphs.
func countOracle(t *testing.T, gp, gt *graph.Graph, sem parsge.Semantics) int64 {
	t.Helper()
	return testutil.BruteCountSem(gp, gt, sem)
}

// memoStack is the HTTP stack of the pattern-memo tests: a
// NewRouterServer hosting one target, driven in process through
// ServeHTTP.
type memoStack struct {
	h   *Server
	r   *Router
	svc *targetService
}

func newMemoStack(t *testing.T, tgt *parsge.Target, table *graphio.LabelTable) *memoStack {
	t.Helper()
	r, svc := soloRouter(t, tgt, RouterConfig{})
	t.Cleanup(func() { r.Close(context.Background()) })
	return &memoStack{h: NewRouterServer(r, table), r: r, svc: svc}
}

// memoReply is the part of a query reply the memo tests compare.
type memoReply struct {
	Matches   int64     `json:"matches"`
	Epoch     uint64    `json:"epoch"`
	States    int64     `json:"states"`
	Truncated bool      `json:"truncated"`
	CacheHit  bool      `json:"cache_hit"`
	Plan      string    `json:"plan"`
	Mappings  [][]int32 `json:"mappings"`
}

// serveQuery posts body to path through h in process and decodes a 200
// reply. It reports failures with t.Error, so clients on other
// goroutines may call it.
func serveQuery(t testing.TB, h *Server, path string, body map[string]any) (int, memoReply) {
	b, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, memoReply{}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	var out memoReply
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Error(err)
		}
	}
	return rec.Code, out
}

func (st *memoStack) post(t *testing.T, body map[string]any) (int, memoReply) {
	t.Helper()
	return serveQuery(t, st.h, soloPath+"/query", body)
}

func (st *memoStack) memoEntry(text string) *parsedPattern { return st.h.memo.get([]byte(text)) }

// memoSize returns the memo's entry count and retained bytes.
func memoSize(h *Server) (entries int, bytes int64) {
	h.memo.mu.Lock()
	defer h.memo.mu.Unlock()
	return len(h.memo.m), h.memo.bytes
}

// TestHTTPPatternMemo: each pattern text is parsed and canonicalized
// once per server, and a reply served through the memo is the one a
// fresh parse would give. It runs on the one HTTP stack there is, a
// NewRouterServer.
func TestHTTPPatternMemo(t *testing.T) {
	t.Run("NewRouterServer", testHTTPPatternMemo)
}

func testHTTPPatternMemo(t *testing.T) {
	semOf := map[string]parsge.Semantics{"iso": parsge.SubgraphIso, "induced": parsge.InducedIso, "hom": parsge.Homomorphism}
	w := buildSoakWorld(t, 71)
	table := identityTable(w.gt)
	st := newMemoStack(t, w.tgt, table)
	gp := w.patterns[0]
	text := patternText(t, gp, table)

	// The same text twice: identical replies, the second a cache
	// hit served from the memoized parse.
	body := map[string]any{"pattern": text, "semantics": "iso", "mappings": true}
	code, first := st.post(t, body)
	p := st.memoEntry(text)
	if code != http.StatusOK || p == nil || first.CacheHit {
		t.Fatalf("first post: status %d, memo entry %v, reply %+v", code, p, first)
	}
	if first.Matches != w.oracle[0][parsge.SubgraphIso] {
		t.Fatalf("first post: %d matches, oracle %d", first.Matches, w.oracle[0][parsge.SubgraphIso])
	}
	code, second := st.post(t, body)
	if code != http.StatusOK || !second.CacheHit || st.memoEntry(text) != p {
		t.Fatalf("second post: status %d, reply %+v, memo entry replaced: %v", code, second, st.memoEntry(text) != p)
	}
	second.CacheHit = false
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replies differ:\nfirst  %+v\nsecond %+v", first, second)
	}

	// A relabeled twin is a new text, so a memo miss, but the same
	// canonical identity: a result-cache hit whose mappings are
	// translated into the twin's numbering.
	rng := rand.New(rand.NewSource(5))
	twin, twinText := gp, text
	for twinText == text {
		twin = testutil.PermuteGraph(rng, gp)
		twinText = patternText(t, twin, table)
	}
	if st.memoEntry(twinText) != nil {
		t.Fatal("twin text memoized before it was posted")
	}
	code, tr := st.post(t, map[string]any{"pattern": twinText, "semantics": "iso", "mappings": true})
	if code != http.StatusOK || !tr.CacheHit || tr.Matches != first.Matches || int64(len(tr.Mappings)) != first.Matches {
		t.Fatalf("twin: status %d, reply hit=%v matches=%d mappings=%d, want a hit with %d", code, tr.CacheHit, tr.Matches, len(tr.Mappings), first.Matches)
	}
	for _, m := range tr.Mappings {
		verifyMapping(t, twin, w.gt, m, parsge.SubgraphIso)
	}
	if st.memoEntry(twinText) == nil {
		t.Fatal("twin text not memoized")
	}

	// One text under each semantics: one memo entry, three result
	// cache entries, each count the oracle's.
	pi := 1
	for string(identify(w.patterns[pi]).canon) == string(identify(gp).canon) {
		pi++
	}
	text1 := patternText(t, w.patterns[pi], table)

	// A parse that no longer describes the query's Pattern is
	// ignored: validate keys the query by its own pattern.
	_, _, stale, _ := st.svc.validate(Query{Pattern: w.patterns[pi], parsed: p})
	if _, _, own, _ := st.svc.validate(Query{Pattern: w.patterns[pi]}); stale != own {
		t.Fatal("validate keyed a query by a parse of another pattern")
	}
	entries := st.svc.Stats().CacheEntries
	for _, sem := range []string{"iso", "induced", "hom"} {
		code, r := st.post(t, map[string]any{"pattern": text1, "semantics": sem})
		if code != http.StatusOK || r.CacheHit || r.Matches != w.oracle[pi][semOf[sem]] {
			t.Fatalf("%s: status %d, reply %+v, oracle %d", sem, code, r, w.oracle[pi][semOf[sem]])
		}
	}
	if got := st.svc.Stats().CacheEntries - entries; got != 3 {
		t.Fatalf("one text under three semantics made %d cache entries, want 3", got)
	}
	if n, _ := memoSize(st.h); n != 3 {
		t.Fatalf("memo holds %d texts, want 3 (text, twin, text under three semantics)", n)
	}

	// Over MaxPatternNodes: a 400 on every post, and never
	// memoized; a memoized text is refused too once the limit
	// drops below it.
	big := "#big\n65\n" + strings.Repeat("1\n", 65) + "0\n"
	for i := 0; i < 2; i++ {
		if code, _ := st.post(t, map[string]any{"pattern": big}); code != http.StatusBadRequest {
			t.Fatalf("65-node pattern post %d: status %d, want 400", i, code)
		}
	}
	if st.memoEntry(big) != nil {
		t.Fatal("over-limit pattern was memoized")
	}
	st.h.MaxPatternNodes = gp.NumNodes() - 1
	for i := 0; i < 2; i++ {
		if code, _ := st.post(t, body); code != http.StatusBadRequest {
			t.Fatalf("memoized text over the lowered limit, post %d: status %d, want 400", i, code)
		}
	}
	st.h.MaxPatternNodes = 64
	if code, r := st.post(t, body); code != http.StatusOK || !r.CacheHit {
		t.Fatalf("limit restored: status %d, reply %+v", code, r)
	}

	// After an update, a memoized pre-update text answers at the
	// new epoch with the new graph's count.
	e := w.gt.Edges()[0]
	if _, err := st.r.Update(context.Background(), soloTarget, []parsge.EdgeUpdate{
		{From: e.From, To: e.To, Label: e.Label, Remove: true},
		{From: e.To, To: e.From, Label: e.Label, Remove: true},
	}); err != nil {
		t.Fatal(err)
	}
	want := testutil.BruteCountSem(gp, w.tgt.Graph(), parsge.SubgraphIso)
	code, r := st.post(t, map[string]any{"pattern": text, "semantics": "iso"})
	if code != http.StatusOK || r.Epoch != 1 || r.CacheHit || r.Matches != want {
		t.Fatalf("after update: status %d, reply %+v, want epoch 1 and %d matches", code, r, want)
	}
	if st.memoEntry(text) != p {
		t.Fatal("an update replaced a memo entry")
	}

	// Fill past a small byte budget: the memo is cleared instead
	// of growing, and every reply stays the oracle's. Each pattern
	// is posted under many names: distinct texts, one identity.
	const budget = 4096
	st.h.memo.max = budget
	now := make([]int64, len(w.patterns))
	for i, g := range w.patterns {
		now[i] = testutil.BruteCountSem(g, w.tgt.Graph(), parsge.SubgraphIso)
	}
	const posts = 40
	for i := 0; i < posts; i++ {
		pi := i % len(w.patterns)
		var buf bytes.Buffer
		if err := graphio.Write(&buf, fmt.Sprintf("fill-%d", i), w.patterns[pi], table); err != nil {
			t.Fatal(err)
		}
		code, r := st.post(t, map[string]any{"pattern": buf.String(), "semantics": "iso"})
		if code != http.StatusOK || r.Matches != now[pi] {
			t.Fatalf("fill %d: status %d, %d matches, oracle %d", i, code, r.Matches, now[pi])
		}
		if _, b := memoSize(st.h); b > budget {
			t.Fatalf("fill %d: memo retains %d bytes, budget %d", i, b, budget)
		}
	}
	if n, _ := memoSize(st.h); n >= posts {
		t.Fatalf("memo holds all %d texts, want it cleared on overflow", n)
	}

	// The hostile symmetric pattern (see
	// TestHostileSymmetricPatternUncacheable): its over-budget
	// verdict is memoized, so a repeat is answered uncached with
	// no second canonicalization attempt.
	k11, err := parsge.NewTarget(clique(11), parsge.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := newMemoStack(t, k11, graphio.NewLabelTable())
	hostile := patternText(t, clique(10), hs.h.table)
	for round := 0; round < 2; round++ {
		code, r := hs.post(t, map[string]any{"pattern": hostile, "limit": 1000})
		if code != http.StatusOK || r.Matches < 1000 || r.CacheHit {
			t.Fatalf("hostile round %d: status %d, reply %+v", round, code, r)
		}
	}
	hp := hs.memoEntry(hostile)
	if hp == nil || hp.ok {
		t.Fatalf("hostile pattern memoized as %+v, want an uncacheable entry", hp)
	}
	// A canonicalization attempt allocates thousands of times; a
	// memoized identity resolves with none.
	hostileText := []byte(hostile)
	if allocs := testing.AllocsPerRun(10, func() {
		p, err := hs.h.pattern(hostileText)
		if err == nil {
			hs.svc.validate(Query{Pattern: p.graph, parsed: p})
		}
	}); allocs != 0 {
		t.Fatalf("resolving a memoized hostile pattern allocated %v times, want 0", allocs)
	}
	if st := hs.svc.Stats(); st.CacheEntries != 0 || st.Session.Queries != 2 {
		t.Fatalf("hostile pattern: %d cache entries, %d runs; want 0 and 2", st.CacheEntries, st.Session.Queries)
	}
}

// TestHTTPHitPathAllocs pins the heap work of hits served from the
// result cache through the whole handler, request decoding, routing and
// reply encoding included: a count, and mappings requests answered with
// 1 and with 23 mappings (patterns 4 and 5 of the fixture, both of 5
// nodes), which must allocate alike. With the pattern memo a repeated
// text pays neither a parse nor a canonicalization (83 allocs for the
// count when it paid both), and with the single-pass body decoder and
// the appended reply no encoding/json reflection (23 allocs before).
// The bounds are this fixture's measured counts: 13 for the count, one
// of them the ServeMux capturing the {name} path wildcard and most of
// the rest the ResponseRecorder's, and 15 for a mappings hit, which
// adds the mapping list and its one backing array. A -race build's
// sync.Pool drops a random share of puts, so its pooled buffers are
// sometimes allocated afresh: it measured 14-15 and 16-17 and is
// allowed 16 and 18, without the equality. Stream hits of the same two
// queries are measured over a reused writer (hitWriter), so the count is
// the handler's own: the replay runs in the handler's goroutine through
// one translation buffer, so 1 and 23 mappings allocate alike (6; 10
// and 32 when each mapping was its own slice sent over a channel to the
// handler). The -race build measured 6-7 and is allowed 8, without
// the equality.
func TestHTTPHitPathAllocs(t *testing.T) {
	w := buildSoakWorld(t, 91)
	r, svc := soloRouter(t, w.tgt, RouterConfig{})
	table := identityTable(w.gt)
	h := NewRouterServer(r, table)
	req := httptest.NewRequest(http.MethodPost, soloPath+"/query", nil)
	var rd bytes.Reader
	// allocs warms the result cache and the memo with body, checks that
	// a repeat is a hit with the oracle's count, and measures one.
	allocs := func(name string, body map[string]any, want int64) float64 {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			rd.Reset(b)
			req.Body = io.NopCloser(&rd)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		serve()
		rec := serve()
		var out memoReply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || !out.CacheHit || out.Matches != want {
			t.Fatalf("%s: second request: status %d, body %s; want a cache hit with %d matches", name, rec.Code, rec.Body, want)
		}
		if body["mappings"] == true && int64(len(out.Mappings)) != want {
			t.Fatalf("%s: %d mappings, want %d", name, len(out.Mappings), want)
		}
		return testing.AllocsPerRun(100, func() { serve() })
	}
	count := allocs("count", map[string]any{"pattern": patternText(t, w.patterns[0], table)}, w.oracle[0][parsge.SubgraphIso])
	one := allocs("1 mapping", map[string]any{"pattern": patternText(t, w.patterns[4], table), "semantics": "induced", "mappings": true},
		w.oracle[4][parsge.InducedIso])
	many := allocs("23 mappings", map[string]any{"pattern": patternText(t, w.patterns[5], table), "semantics": "hom", "mappings": true},
		w.oracle[5][parsge.Homomorphism])
	if w.oracle[4][parsge.InducedIso] != 1 || w.oracle[5][parsge.Homomorphism] < 20 {
		t.Fatalf("fixture: mappings hits of %d and %d, want 1 and at least 20", w.oracle[4][parsge.InducedIso], w.oracle[5][parsge.Homomorphism])
	}
	countBound, mapBound := 13.0, 15.0
	if raceEnabled {
		countBound, mapBound = 16, 18
	}
	if count > countBound {
		t.Errorf("HTTP count hit: %v allocs, want <= %v", count, countBound)
	}
	if one > mapBound || many > mapBound {
		t.Errorf("HTTP mappings hits: %v allocs (1 mapping) and %v (23 mappings), want <= %v", one, many, mapBound)
	}
	if !raceEnabled && one != many {
		t.Errorf("HTTP mappings hits: %v allocs for 1 mapping, %v for 23; want equal", one, many)
	}

	// streamAllocs warms the result cache and the memo with a stream of
	// body, checks that a repeat replays every match from the cache, and
	// measures one.
	hw := &hitWriter{hdr: make(http.Header)}
	body := io.NopCloser(&rd)
	streamAllocs := func(name string, post map[string]any, want int64) float64 {
		post["stream"] = true
		b, err := json.Marshal(post)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rd.Reset(b)
			req.Body = body
			hw.reset()
			h.ServeHTTP(hw, req)
		}
		serve()
		hits := svc.Stats().CacheHits
		serve()
		out := bytes.Split(bytes.TrimSuffix(hw.body.Bytes(), []byte("\n")), []byte("\n"))
		var end streamLine
		if hw.status != http.StatusOK || svc.Stats().CacheHits != hits+1 || int64(len(out)) != want+1 ||
			json.Unmarshal(out[len(out)-1], &end) != nil || !end.Done || end.Matches != want {
			t.Fatalf("%s: second stream: status %d, body %s; want a cache hit streaming %d matches", name, hw.status, hw.body.Bytes(), want)
		}
		return testing.AllocsPerRun(100, serve)
	}
	streamOne := streamAllocs("stream, 1 mapping", map[string]any{"pattern": patternText(t, w.patterns[4], table), "semantics": "induced"},
		w.oracle[4][parsge.InducedIso])
	streamMany := streamAllocs("stream, 23 mappings", map[string]any{"pattern": patternText(t, w.patterns[5], table), "semantics": "hom"},
		w.oracle[5][parsge.Homomorphism])
	streamBound := 6.0
	if raceEnabled {
		streamBound = 8
	}
	if streamOne > streamBound || streamMany > streamBound {
		t.Errorf("HTTP stream hits: %v allocs (1 mapping) and %v (23 mappings), want <= %v", streamOne, streamMany, streamBound)
	}
	if !raceEnabled && streamOne != streamMany {
		t.Errorf("HTTP stream hits: %v allocs for 1 mapping, %v for 23; want equal", streamOne, streamMany)
	}
}

// TestHTTPPatternMemoSoak: eight clients post overlapping pattern texts
// — every text to both router targets — through one server whose memo,
// at a tiny byte budget, overflows and is cleared over and over. Every
// reply must equal the oracle of the target it was posted to.
func TestHTTPPatternMemoSoak(t *testing.T) {
	wa, wb := buildSoakWorld(t, 81), buildSoakWorld(t, 82)
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
	h := NewRouterServer(r, table)
	h.memo.max = 2048

	targets := [2]string{"alpha", "beta"}
	type query struct {
		body map[string]any
		want [2]int64 // per target
	}
	var queries []query
	texts := 0
	for pi, gp := range append(append([]*graph.Graph(nil), wa.patterns...), wb.patterns...) {
		for spelling := 0; spelling < 2; spelling++ { // two texts, one identity
			var buf bytes.Buffer
			if err := graphio.Write(&buf, fmt.Sprintf("p%d-%d", pi, spelling), gp, table); err != nil {
				t.Fatal(err)
			}
			texts++
			for sem, s := range map[string]parsge.Semantics{"iso": parsge.SubgraphIso, "induced": parsge.InducedIso, "hom": parsge.Homomorphism} {
				queries = append(queries, query{
					body: map[string]any{"pattern": buf.String(), "semantics": sem, "mappings": pi%2 == 0},
					want: [2]int64{testutil.BruteCountSem(gp, wa.gt, s), testutil.BruteCountSem(gp, wb.gt, s)},
				})
			}
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 150; i++ {
				q := queries[rng.Intn(len(queries))]
				ti := rng.Intn(2)
				code, rep := serveQuery(t, h, "/targets/"+targets[ti]+"/query", q.body)
				if code != http.StatusOK || rep.Matches != q.want[ti] {
					t.Errorf("client %d: %s %v: status %d, %d matches, oracle %d", c, targets[ti], q.body["semantics"], code, rep.Matches, q.want[ti])
					return
				}
				if q.body["mappings"] == true && int64(len(rep.Mappings)) != rep.Matches {
					t.Errorf("client %d: %d mappings for %d matches", c, len(rep.Mappings), rep.Matches)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	n, b := memoSize(h)
	if b > h.memo.max {
		t.Fatalf("memo retains %d bytes, budget %d", b, h.memo.max)
	}
	if n >= texts {
		t.Fatalf("memo holds %d of %d texts: the budget never overflowed", n, texts)
	}
}
