package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"testing"
)

// root is the repository root as seen from this package's directory.
const root = ".."

func loadWorkload(t *testing.T, name string) (*inputs, *truth) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w)
	if err != nil {
		t.Fatal(err)
	}
	tr, source, err := loadTruth(root, in)
	if err != nil {
		t.Fatal(err)
	}
	if source == "computed" {
		t.Errorf("%s: committed truth is stale for the generated inputs; rerun --prepare", name)
	}
	return in, tr
}

func TestOpListsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		in, tr := loadWorkload(t, w.name)
		a, b := opLists(in, tr, 1), opLists(in, tr, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different op lists", w.name)
		}
		if reflect.DeepEqual(a, opLists(in, tr, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same op lists", w.name)
		}
		for _, list := range a {
			if len(list) == 0 {
				t.Errorf("%s: empty op list", w.name)
			}
		}
	}
}

// TestTruthRepeats recomputes the ground truth of the sparse workloads
// (the dense one takes seconds) and compares it with the committed file.
func TestTruthRepeats(t *testing.T) {
	for _, name := range []string{"sparse-hot", "sparse-mutate"} {
		in, committed := loadWorkload(t, name)
		fresh, err := computeTruth(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, committed) {
			t.Errorf("%s: recomputed truth differs from the committed truth", name)
		}
	}
}

func TestClassifyQuery(t *testing.T) {
	within := expect{Count: 7, Digest: "00000000000000aa", States: 40}
	refused := expect{Refused: true, States: 1 << 30}
	for _, c := range []struct {
		name string
		e    expect
		r    reply
		want outcome
	}{
		{"200 right count", within, reply{status: 200, matches: 7}, outcomeOK},
		{"200 right mappings", within, reply{status: 200, matches: 7, digest: "00000000000000aa"}, outcomeOK},
		{"200 wrong count", within, reply{status: 200, matches: 8}, outcomeWrongCount},
		{"200 wrong mappings", within, reply{status: 200, matches: 7, digest: "00000000000000ab"}, outcomeWrongCount},
		{"429 within the cap", within, reply{status: 429, err: "predicted explosive"}, outcomeRefusedWithinCap},
		{"429 expected refusal", refused, reply{status: 429}, outcomeOK},
		{"200 for an expected refusal", refused, reply{status: 200, matches: 3}, outcomeAnsweredAboveCap},
		{"timeout for an expected refusal", refused, reply{status: 504}, outcomeAnsweredAboveCap},
		{"overloaded on an expected refusal", refused, reply{status: 503}, outcomeError},
		{"truncated by timeout", within, reply{status: 200, matches: 3, truncated: true}, outcomeTimedOut},
		{"admission queue timeout", within, reply{status: 504}, outcomeTimedOut},
		{"overloaded", within, reply{status: 503}, outcomeError},
		{"bad request", within, reply{status: 400}, outcomeError},
		{"stream error line", within, reply{status: 200, matches: 7, err: "boom"}, outcomeError},
	} {
		if got := classifyQuery(c.e, c.r); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyCensusAndUpdate(t *testing.T) {
	ct := &censusTruth{Subgraphs: 10, Digest: "0000000000000001"}
	if got := classifyCensus(ct, reply{status: 200, matches: 10, digest: "0000000000000001"}); got != outcomeOK {
		t.Errorf("census ok: got %v", got)
	}
	if got := classifyCensus(ct, reply{status: 200, matches: 9, digest: "0000000000000001"}); got != outcomeWrongCount {
		t.Errorf("census wrong count: got %v", got)
	}
	if got := classifyCensus(ct, reply{status: 200, matches: 4, truncated: true}); got != outcomeTimedOut {
		t.Errorf("census truncated: got %v", got)
	}
	ut := &updateTruth{Applied: 32, Touched: 30}
	if got := classifyUpdate(ut, reply{status: 200, applied: 32, touched: 30}); got != outcomeOK {
		t.Errorf("update ok: got %v", got)
	}
	if got := classifyUpdate(ut, reply{status: 200, applied: 32, touched: 29}); got != outcomeWrongCount {
		t.Errorf("update wrong touched: got %v", got)
	}
	if got := classifyUpdate(ut, reply{status: 500}); got != outcomeError {
		t.Errorf("update error: got %v", got)
	}
}

// TestReadReply decodes recorded count, mappings and stream bodies.
func TestReadReply(t *testing.T) {
	m := [][]int32{{0, 1}, {1, 0}}
	want := hex64(mappingHash(m[0]) + mappingHash(m[1]))
	rec := newRecorder()
	rec.Write([]byte(`{"matches":2,"cache_hit":true,"mappings":[[1,0],[0,1]]}`))
	if r := readReply(kindMappings, rec); r.matches != 2 || r.digest != want || !r.cacheHit || r.err != "" {
		t.Errorf("mappings reply: %+v", r)
	}
	rec.reset()
	rec.Write([]byte("{\"mapping\":[0,1]}\n{\"mapping\":[1,0]}\n{\"done\":true,\"matches\":2}\n"))
	if r := readReply(kindStream, rec); r.matches != 2 || r.digest != want || r.err != "" {
		t.Errorf("stream reply: %+v", r)
	}
	rec.reset()
	rec.Write([]byte("{\"mapping\":[0,1]}\n"))
	if r := readReply(kindStream, rec); r.err == "" {
		t.Errorf("stream without a done line was accepted: %+v", r)
	}
	rec.reset()
	rec.WriteHeader(http.StatusTooManyRequests)
	rec.Write([]byte(`{"error":"service: predicted explosive"}`))
	if r := readReply(kindCount, rec); r.status != 429 || r.err == "" {
		t.Errorf("429 reply: %+v", r)
	}
}

// TestMetricsDeclared checks every emitted metric against BENCHMARK.json:
// same name, same unit, and nothing declared left unreported.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	p := &passResult{}
	e := endToEnd([]*passResult{p})
	for _, c := range []struct {
		section string
		decl    []struct{ Name, Unit string }
		got     map[string]metric
	}{
		{"end_to_end", decl.EndToEnd, e.metrics},
		{"per_layer", decl.PerLayer, perLayer([]*passResult{p}, []*passResult{p}, e)},
	} {
		units := make(map[string]string)
		for _, d := range c.decl {
			units[d.Name] = d.Unit
		}
		for name, m := range c.got {
			if u, ok := units[name]; !ok {
				t.Errorf("%s: %s is emitted but not declared", c.section, name)
			} else if u != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", c.section, name, m.Unit, u)
			}
		}
		for name := range units {
			if _, ok := c.got[name]; !ok {
				t.Errorf("%s: %s is declared but not emitted", c.section, name)
			}
		}
	}
}

// TestPassSmoke replays a short prefix of every sparse-mutate list, once
// untraced and once traced, and expects every reply to check out.
func TestPassSmoke(t *testing.T) {
	in, tr := loadWorkload(t, "sparse-mutate")
	r, err := newRunner(in, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.lists {
		r.lists[i] = r.lists[i][:min(len(r.lists[i]), 60)]
	}
	for _, traced := range []bool{false, true} {
		p, err := r.pass(traced, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPass(p); err != nil {
			t.Fatal(err)
		}
		if p.t.attempted == 0 || p.t.outcomes[outcomeWrongCount]+p.t.outcomes[outcomeError]+p.t.outcomes[outcomeTimedOut] > 0 {
			t.Errorf("traced=%v: outcomes %v", traced, p.t.outcomes)
		}
		if traced && (len(p.tracers) == 0 || len(p.tracers[0].spans) == 0) {
			t.Errorf("traced pass recorded no spans")
		}
	}
}
