package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"parsge"
	"parsge/internal/graphio"
	"parsge/internal/service"
)

// maxPatternNodes is sgeserve's -max-pattern-nodes default.
const maxPatternNodes = 64

// routerConfig is the configuration `sgeserve -targets` gives the
// router when run with its flag defaults.
func routerConfig() service.RouterConfig {
	return service.RouterConfig{
		QueueTimeout:    2 * time.Second,
		CacheMaxMatches: 1 << 20,
		DefaultTimeout:  30 * time.Second,
		ExplosivePolicy: service.ExplosiveShed,
	}
}

// servedParallel is the pool a large query or a census gets under
// routerConfig: half the budget, at least 2, at most the budget.
func servedParallel() int {
	budget := runtime.GOMAXPROCS(0)
	p := budget / 2
	if p < 2 {
		p = 2
	}
	if p > budget {
		p = budget
	}
	return p
}

// stack is one served instance: the router and the HTTP handler over it.
type stack struct {
	router  *service.Router
	handler *service.Server
}

// buildStack hosts every target as t0..tN on a fresh router, wraps it in
// the handler, and, when warm is non-nil, sends one warm-up query per
// target so lazily built per-target state exists before timing. All of
// it is what setup_s measures.
func buildStack(in *inputs, warm [][]byte) (*stack, error) {
	r := service.NewRouter(routerConfig())
	for i, g := range in.targets {
		if err := r.AddTarget(in.names[i], g, parsge.TargetOptions{}); err != nil {
			return nil, err
		}
	}
	h := service.NewRouterServer(r, in.labelTable())
	h.MaxPatternNodes = maxPatternNodes
	st := &stack{router: r, handler: h}
	rec := newRecorder()
	for i, body := range warm {
		rec.reset()
		h.ServeHTTP(rec, newRequest(queryPath(in.names[i]), body))
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up query on %s: HTTP %d: %s", in.names[i], rec.status, rec.body.String())
		}
	}
	return st, nil
}

func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.router.Close(ctx)
}

// warmupBodies builds one warm-up query per target: the target's first
// edge as a two-node pattern with limit 1. No op carries a limit, so the
// warm-up never shares a cache entry with the op list.
func warmupBodies(in *inputs) ([][]byte, error) {
	table := in.labelTable()
	out := make([][]byte, len(in.targets))
	for i, g := range in.targets {
		b := parsge.NewBuilder(2, 1)
		var e parsge.Edge
		if edges := g.Edges(); len(edges) > 0 {
			e = edges[0]
		}
		b.AddNode(g.NodeLabel(e.From))
		b.AddNode(g.NodeLabel(e.To))
		b.AddEdge(0, 1, e.Label)
		pattern, err := b.Build()
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := graphio.Write(&sb, "warmup", pattern, table); err != nil {
			return nil, err
		}
		if out[i], err = json.Marshal(map[string]any{"pattern": sb.String(), "limit": 1}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func queryPath(target string) string  { return "/targets/" + target + "/query" }
func censusPath(target string) string { return "/targets/" + target + "/census" }
func updatePath(target string) string { return "/targets/" + target + "/update" }

func newRequest(path string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // paths are built from target names, never from input
	}
	return req
}

// recorder is the in-process ResponseWriter the clients hand to
// ServeHTTP; it is reset and reused for every request of a client.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// Flush satisfies http.Flusher, which the stream path uses.
func (r *recorder) Flush() {}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}
