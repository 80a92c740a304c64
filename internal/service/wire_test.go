package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"parsge"
	"parsge/internal/datasets"
	"parsge/internal/graphio"
)

// hitWriter is an in-process ResponseWriter reused across requests, as
// servebench's clients reuse theirs, so the allocations counted over it
// are the handler's own.
type hitWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *hitWriter) Header() http.Header { return w.hdr }

func (w *hitWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *hitWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *hitWriter) Flush() {}

func (w *hitWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// BenchmarkHTTPHit times a cache hit through ServeHTTP on the first
// sparse-hot pool pattern (PDBSv1 at scale 0.1, seed 20170525: pattern
// 0 on its own target, iso semantics, 5 matches), posted with the body
// servebench sends: a count, a mappings request and a stream. Each is
// warmed into the result cache and the pattern memo first.
func BenchmarkHTTPHit(b *testing.B) {
	coll, err := datasets.ByName("PDBSv1", datasets.Config{Scale: 0.1, Seed: 20170525})
	if err != nil {
		b.Fatal(err)
	}
	p := coll.Patterns[0]
	tgt, err := parsge.NewTarget(coll.Targets[p.TargetIndex], parsge.TargetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r, _ := soloRouter(b, tgt, RouterConfig{})
	defer r.Close(b.Context())
	maxLabel := 0
	for _, g := range coll.Targets {
		maxLabel = max(maxLabel, int(g.MaxNodeLabel()))
	}
	table := graphio.NewLabelTable()
	for l := 1; l <= maxLabel; l++ {
		table.Intern(strconv.Itoa(l))
	}
	var text strings.Builder
	if err := graphio.Write(&text, "p0", p.Graph, table); err != nil {
		b.Fatal(err)
	}
	h := NewRouterServer(r, table)
	req, err := http.NewRequest(http.MethodPost, soloPath+"/query", nil)
	if err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	body := io.NopCloser(&rd)
	w := &hitWriter{hdr: make(http.Header)}
	serve := func(data []byte) {
		rd.Reset(data)
		req.Body = body
		w.reset()
		h.ServeHTTP(w, req)
	}
	for _, kind := range []string{"count", "mappings", "stream"} {
		post, err := json.Marshal(map[string]any{"pattern": text.String(), "semantics": "iso",
			"mappings": kind == "mappings", "stream": kind == "stream"})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind, func(b *testing.B) {
			serve(post)
			serve(post)
			want := `"cache_hit":true`
			if kind == "stream" {
				want = `{"done":true,"matches":5`
			}
			if w.status != http.StatusOK || !strings.Contains(w.body.String(), want) {
				b.Fatalf("status %d, body %s; want a cache hit", w.status, w.body.Bytes())
			}
			b.ReportAllocs()
			for b.Loop() {
				serve(post)
			}
		})
	}
}

// wireString draws a string from pieces encoding/json escapes or
// rewrites: quotes, backslashes, HTML characters, control bytes, U+2028
// and U+2029, invalid and truncated UTF-8, and plain text.
func wireString(rng *rand.Rand) string {
	pieces := []string{"", "plain", " ", "\"", "\\", "/", "<", ">", "&", "\u2028", "\u2029", "\x7f",
		"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
		"é", "日本", "\ufffd", "😀", "predicted explosive (plan nlf+ac:adaptive:1, ~3ms)"}
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// wireFloat draws a finite float64, often at the edges of
// encoding/json's two formats: below 1e-6 and from 1e21 in magnitude.
func wireFloat(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(7) {
	case 0:
		return sign * 0
	case 1:
		return sign * rng.Float64() * 1e-6 * math.Pow(10, -float64(rng.Intn(300)))
	case 2:
		return sign * (1 + rng.Float64()) * 1e21 * math.Pow(10, float64(rng.Intn(280)))
	case 3:
		edges := []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1e-10,
			5e-324, math.MaxFloat64, 0.1, 100, 123456789.125}
		return sign * edges[rng.Intn(len(edges))]
	case 4:
		return float64(rng.Int63n(1e9)) / 1e6 // a duration in ms
	case 5:
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return 1
	}
	return sign * rng.ExpFloat64() * 1000
}

// wireMapping draws a mapping: nil, empty or of random node ids.
func wireMapping(rng *rand.Rand) []int32 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	m := make([]int32, 1+rng.Intn(6))
	for i := range m {
		switch rng.Intn(4) {
		case 0:
			m[i] = math.MaxInt32
		case 1:
			m[i] = -rng.Int31()
		default:
			m[i] = rng.Int31n(5000)
		}
	}
	return m
}

func wireInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MinInt64 + rng.Int63n(2)
	case 2:
		return -rng.Int63()
	}
	return rng.Int63()
}

func wireBool(rng *rand.Rand) bool { return rng.Intn(2) == 0 }

// TestQueryWireMatchesJSON: every reply the query path appends — the
// count and mappings reply, each NDJSON stream line, the error body and
// the 429 shed body — is byte for byte what json.NewEncoder(w).Encode
// writes for the same value, over random values, appended after what
// the buffer already holds.
func TestQueryWireMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	check := func(what string, v any, appendTo func([]byte) []byte) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		prefix := []byte("prefix")
		got := appendTo(prefix[:len(prefix):len(prefix)])
		if !bytes.Equal(got[len(prefix):], want.Bytes()) || string(got[:len(prefix)]) != "prefix" {
			t.Fatalf("%s %#v:\nappended %q\nencoding/json %q", what, v, got, want.Bytes())
		}
	}
	for i := 0; i < 5000; i++ {
		r := queryResponse{
			Matches: wireInt(rng), Epoch: rng.Uint64() >> rng.Intn(64), States: wireInt(rng),
			Truncated: wireBool(rng), Unsatisfiable: wireBool(rng), CacheHit: wireBool(rng),
			Shared: wireBool(rng), Large: wireBool(rng),
			QueueWaitMS: wireFloat(rng), PreprocMS: wireFloat(rng), MatchMS: wireFloat(rng),
			Plan: wireString(rng), Class: wireString(rng), ClassEpoch: rng.Uint64() >> rng.Intn(65),
			PredictedMS: wireFloat(rng),
		}
		switch rng.Intn(4) {
		case 0:
		case 1:
			r.Mappings = [][]int32{}
		default:
			r.Mappings = make([][]int32, rng.Intn(4))
			for j := range r.Mappings {
				r.Mappings[j] = wireMapping(rng)
			}
		}
		check("queryResponse", r, func(b []byte) []byte { return appendQueryResponse(b, &r) })

		l := streamLine{Mapping: wireMapping(rng)}
		if wireBool(rng) {
			l = streamLine{Done: wireBool(rng), Matches: wireInt(rng), Epoch: rng.Uint64() >> rng.Intn(65),
				Truncated: wireBool(rng), Error: wireString(rng)}
		}
		check("streamLine", l, func(b []byte) []byte { return appendStreamLine(b, &l) })

		msg := wireString(rng)
		check("error body", map[string]string{"error": msg}, func(b []byte) []byte { return appendErrorBody(b, msg) })

		ex := &ExplosiveError{Predicted: time.Duration(wireInt(rng) >> rng.Intn(64)), Plan: wireString(rng), LogDomainProduct: wireFloat(rng)}
		check("shed body", map[string]any{
			"error":              msg,
			"predicted_ms":       float64(ex.Predicted) / float64(time.Millisecond),
			"plan":               ex.Plan,
			"log_domain_product": ex.LogDomainProduct,
		}, func(b []byte) []byte { return appendShedBody(b, msg, ex) })
	}
}

// queryBodies are request bodies at the edges of scanQuery's shape:
// fast marks the ones it decodes itself; every other one goes to
// encoding/json. They seed FuzzQueryRequest.
var queryBodies = []struct {
	body string
	fast bool
}{
	{`{}`, true},
	{" \t\r\n{ \n} ", true},
	{`{"mappings":false,"pattern":"#p0\n3\n1\n2\n1\n2\n0 1\n1 2\n","semantics":"iso","stream":false}`, true},
	{`{"pattern":"a\"\\\/\b\f\n\r\t\u00e9\u2028\u0000 é日本","semantics":"Induced","algorithm":"ri","limit":-0,"timeout_ms":123456789012345678,"mappings":true,"stream":false}`, true},
	{`{ "pattern" : "\u003c\u003e\u0026" , "limit" : 0 , "algorithm" : "RI-DS" }`, true},
	{`{"pattern":"x","stream":true}garbage`, true}, // data after the first value
	{`{"pattern":"x"} {"pattern":"y"}`, true},
	{`{"Pattern":"x"}`, false}, // case-folded keys
	{`{"PATTERN":"x","STREAM":true}`, false},
	{`{"ſtream":true}`, false},
	{`{"pattern":"x","extra":1}`, false},                      // unknown key
	{`{"pattern":"x","extra":{"a":[1,2,{"b":null}]}}`, false}, // nested values
	{`{"pattern":["x"]}`, false},
	{`null`, false},
	{`{"pattern":null,"stream":null}`, false},
	{`{"pattern":"\ud83d\ude00"}`, false}, // surrogate escapes
	{`{"pattern":"\ud800x"}`, false},
	{`{"pattern":"\uDC00"}`, false},
	{`{"limit":1.0}`, false},
	{`{"limit":1e2}`, false},
	{`{"timeout_ms":1E2}`, false},
	{`{"limit":9223372036854775807}`, false}, // 19 digits
	{`{"limit":9223372036854775808}`, false}, // numbers past int64
	{`{"timeout_ms":-9223372036854775809}`, false},
	{`{"pattern":"x","pattern":"y"}`, false}, // duplicate keys
	{`{"stream":true,"stream":false}`, false},
	{`{"Pattern":"x"} trailing`, false}, // data after the first value
	{"{\"pattern\":\"\xff\"}", false},
	{"{\"pattern\":\"a\tb\"}", false},
	{`{"pat\u0074ern":"x"}`, false},
	{`{"limit":01}`, false},
	{`{"limit":-}`, false},
	{`{"pattern":"x",}`, false},
	{`{"stream":"true"}`, false},
	{`{"stream":tru}`, false},
	{`{"stream":1}`, false},
	{`{"limit":true}`, false},
	{`{"pattern":1}`, false},
	{`{"pattern":"x"`, false},
	{`{"pattern" "x"}`, false},
	{`{"pattern":"\x"}`, false},
	{`{"pattern":"\u12"}`, false},
	{`{"pattern":"\u00`, false},
	{`[]`, false},
	{`"x"`, false},
	{``, false},
	{" \n", false},
}

// FuzzQueryRequest holds the query body decoder to
// json.NewDecoder(bytes.NewReader(b)).Decode: the same bodies accepted,
// with the same fields, and the same error texts for the rest. A body
// scanQuery decodes itself must be one encoding/json accepts with
// exactly those fields.
func FuzzQueryRequest(f *testing.F) {
	for _, c := range queryBodies {
		var req queryRequest
		if _, ok := scanQuery([]byte(c.body), &req, nil); ok != c.fast {
			f.Errorf("scanQuery(%q) ok = %v, want %v", c.body, ok, c.fast)
		}
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want queryRequest
		wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
		var fast queryRequest
		if text, ok := scanQuery(b, &fast, nil); ok {
			fast.Pattern = string(text)
			if wantErr != nil || fast != want {
				t.Fatalf("scanQuery(%q) = %+v, encoding/json %+v, %v", b, fast, want, wantErr)
			}
		}
		var got queryRequest
		text, err := decodeQuery(b, &got, []byte("scratch"))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decodeQuery(%q): error %v, encoding/json %v", b, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(text, []byte("scratch")) {
			t.Fatalf("decodeQuery(%q) overwrote the scratch it appends to: %q", b, text)
		}
		got.Pattern = string(text[len("scratch"):])
		if got != want {
			t.Fatalf("decodeQuery(%q) = %+v, encoding/json %+v", b, got, want)
		}
	})
}
