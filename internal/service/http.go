package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsge"
	"parsge/internal/graphio"
)

// Server exposes a Router over HTTP with a small JSON API:
//
//	POST /targets/{name}/query   — submit a pattern; count, enumerate, or stream matches
//	POST /targets/{name}/census  — motif census of the named target
//	POST /targets/{name}/update  — apply an edge-update batch to the named target
//	GET  /healthz                — liveness; 503 once draining
//	GET  /stats                  — the RouterStats snapshot: every hosted target
//	                               with its mutation epoch, plan histograms included
//
// The query body is JSON: {"pattern": "<graph section in the GFF text
// format>", "semantics": "iso"|"induced"|"hom", "algorithm": "auto"|...,
// "limit": n, "timeout_ms": n, "mappings": bool, "stream": bool}.
// Non-stream replies are one JSON object; stream replies are NDJSON —
// one {"mapping": [...]} line per match, then a terminal
// {"done": true, ...} line. A client that disconnects mid-stream tears
// the enumeration down through the request context.
//
// The update body is JSON: {"updates": [{"from": u, "to": v, "label":
// "x", "remove": bool}, ...]} — one batch, applied atomically (see
// parsge.Target.ApplyUpdates); the reply carries the new epoch.
//
// Pattern and update labels are interned into the server's label table
// (shared with the target graph so equal label strings compare equal);
// the table is guarded here because graphio tables are not safe for
// concurrent interning. A pattern text is parsed and canonicalized once:
// the memo serves every later post of the same text, to any target.
type Server struct {
	router  *Router
	table   *graphio.LabelTable
	tableMu sync.Mutex
	memo    patternMemo
	mux     *http.ServeMux

	// MaxPatternNodes rejects absurd patterns at parse time (pattern
	// searches are exponential in pattern size). Default 64. Hostile
	// *symmetric* patterns within this bound are defused separately:
	// canonicalization runs under a cost budget and a pattern exceeding
	// it is simply served uncached (see targetService.validate).
	MaxPatternNodes int

	draining atomic.Bool
}

// NewRouterServer wraps a router: every hosted target is served under
// /targets/{name}/, and /stats reports the router snapshot. table must
// be the label table the target graphs were read with (a fresh table,
// or nil, is only correct for label-free use).
func NewRouterServer(router *Router, table *graphio.LabelTable) *Server {
	if table == nil {
		table = graphio.NewLabelTable()
	}
	h := &Server{router: router, table: table, memo: patternMemo{max: memoMaxBytes}, MaxPatternNodes: 64}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /stats", h.handleStats)
	resolve := func(w http.ResponseWriter, r *http.Request) *targetService {
		svc, err := router.route(r.PathValue("name"))
		if err != nil {
			code := http.StatusNotFound
			if !errors.Is(err, ErrUnknownTarget) {
				code = errorCode(err)
			}
			httpError(w, code, err)
			return nil
		}
		return svc
	}
	h.mux.HandleFunc("POST /targets/{name}/query", func(w http.ResponseWriter, r *http.Request) {
		if svc := resolve(w, r); svc != nil {
			h.handleQuery(w, r, svc)
		}
	})
	h.mux.HandleFunc("POST /targets/{name}/census", func(w http.ResponseWriter, r *http.Request) {
		if svc := resolve(w, r); svc != nil {
			h.handleCensus(w, r, svc)
		}
	})
	h.mux.HandleFunc("POST /targets/{name}/update", func(w http.ResponseWriter, r *http.Request) {
		if svc := resolve(w, r); svc != nil {
			h.handleUpdate(w, r, svc)
		}
	})
	return h
}

func (h *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// StartDrain flips the server to draining: /healthz turns 503 so load
// balancers stop routing here, and new queries are refused while
// in-flight ones finish (the http.Server.Shutdown the caller runs next
// waits for those).
func (h *Server) StartDrain() { h.draining.Store(true) }

// queryRequest is the POST .../query body. decodeQuery reads it; a body
// outside its single-pass shape goes to encoding/json by these tags.
type queryRequest struct {
	Pattern   string `json:"pattern"`
	Semantics string `json:"semantics,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Limit     int64  `json:"limit,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Mappings  bool   `json:"mappings,omitempty"`
	Stream    bool   `json:"stream,omitempty"`
}

// queryResponse is a count or mappings reply. appendQueryResponse
// writes it; its json tags are the format that is held to.
type queryResponse struct {
	Matches       int64   `json:"matches"`
	Epoch         uint64  `json:"epoch"`
	States        int64   `json:"states"`
	Truncated     bool    `json:"truncated,omitempty"`
	Unsatisfiable bool    `json:"unsatisfiable,omitempty"`
	CacheHit      bool    `json:"cache_hit"`
	Shared        bool    `json:"shared,omitempty"`
	Large         bool    `json:"large,omitempty"`
	QueueWaitMS   float64 `json:"queue_wait_ms"`
	// PreprocMS is Result.PreprocTime: the one domain preprocessing the
	// query paid, which an admitted run shares with its cost estimate.
	PreprocMS float64 `json:"preproc_ms"`
	MatchMS   float64 `json:"match_ms"`
	Plan      string  `json:"plan,omitempty"`
	// Class is the cost model's admission verdict ("small", "large",
	// "explosive"; empty for cache hits and singleflight followers),
	// ClassEpoch the target epoch the decision was pinned at, and
	// PredictedMS the model's cost estimate when plan history backed one.
	Class       string    `json:"class,omitempty"`
	ClassEpoch  uint64    `json:"class_epoch,omitempty"`
	PredictedMS float64   `json:"predicted_ms,omitempty"`
	Mappings    [][]int32 `json:"mappings,omitempty"`
}

// streamLine is one NDJSON line of a streaming reply, written by
// appendStreamLine to its json tags. The terminal (done) line carries
// the epoch the stream executed against.
type streamLine struct {
	Mapping   []int32 `json:"mapping,omitempty"`
	Done      bool    `json:"done,omitempty"`
	Matches   int64   `json:"matches,omitempty"`
	Epoch     uint64  `json:"epoch,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
}

func parseSemantics(s string) (parsge.Semantics, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return parsge.SemanticsUnset, nil
	case "iso", "subgraph-iso":
		return parsge.SubgraphIso, nil
	case "induced", "induced-iso":
		return parsge.InducedIso, nil
	case "hom", "homomorphism":
		return parsge.Homomorphism, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q", s)
	}
}

func parseAlgorithm(s string) (parsge.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return parsge.Auto, nil
	case "ri":
		return parsge.RI, nil
	case "rids", "ri-ds":
		return parsge.RIDS, nil
	case "ridssi", "ri-ds-si":
		return parsge.RIDSSI, nil
	case "ridssifc", "ri-ds-si-fc":
		return parsge.RIDSSIFC, nil
	case "vf2":
		return parsge.VF2, nil
	case "lad":
		return parsge.LAD, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// parseTimeout converts a request's timeout_ms, refusing a negative
// value and one past what a time.Duration holds; 0 means unset.
func parseTimeout(ms int64) (time.Duration, error) {
	if ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("timeout_ms must be in [0, %d], got %d", math.MaxInt64/int64(time.Millisecond), ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// parsePattern reads the first graph section from the request text,
// interning labels into the shared table under the table lock.
func (h *Server) parsePattern(text string) (*parsge.Graph, error) {
	h.tableMu.Lock()
	defer h.tableMu.Unlock()
	graphs, err := parsge.ReadGraphs(strings.NewReader(text), h.table)
	if err != nil {
		return nil, err
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("no graph section in pattern")
	}
	return graphs[0].Graph, nil
}

// pattern resolves a request's pattern text to its parse and canonical
// identity: from the memo for a text seen before, else parsed and
// canonicalized here and memoized. MaxPatternNodes is checked on every
// request, before an over-limit pattern is ever canonicalized. text may
// be request scratch: the memo keeps a copy.
func (h *Server) pattern(text []byte) (*parsedPattern, error) {
	p := h.memo.get(text)
	hit := p != nil
	var key string // the memo's copy of text, made on a miss
	if !hit {
		key = string(text)
		g, err := h.parsePattern(key)
		if err != nil {
			return nil, fmt.Errorf("bad pattern: %w", err)
		}
		p = &parsedPattern{graph: g}
	}
	if n := p.graph.NumNodes(); n > h.MaxPatternNodes {
		return nil, fmt.Errorf("pattern has %d nodes, limit %d", n, h.MaxPatternNodes)
	}
	if !hit {
		*p = identify(p.graph)
		h.memo.put(key, p)
	}
	return p, nil
}

// writeJSON sends a JSON reply body with one Write.
func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func httpError(w http.ResponseWriter, code int, err error) {
	b := getBuf()
	*b = appendErrorBody((*b)[:0], err.Error())
	writeJSON(w, code, *b)
	putBuf(b)
}

// bodyError answers a request whose body could not be read or decoded:
// 413 past the endpoint's MaxBytesReader bound, else 400.
func bodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("bad request body: %w", err))
}

// durationMS converts a duration to the float milliseconds replies carry.
func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errorCode maps service errors to HTTP statuses: overload signals get
// retryable 5xx codes, a cost-model shed is 429 (retry later, smaller,
// or with a longer budget), everything else is the client's fault.
func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrPredictedExplosive):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// queryError writes a query-path error reply. A cost-model shed gets a
// Retry-After header and a body carrying the estimate that triggered it,
// so clients can back off proportionally instead of blind-retrying.
func queryError(w http.ResponseWriter, err error) {
	var ex *ExplosiveError
	if errors.As(err, &ex) {
		w.Header().Set("Retry-After", "1")
		b := getBuf()
		*b = appendShedBody((*b)[:0], err.Error(), ex)
		writeJSON(w, http.StatusTooManyRequests, *b)
		putBuf(b)
		return
	}
	httpError(w, errorCode(err), err)
}

func (h *Server) handleQuery(w http.ResponseWriter, r *http.Request, svc *targetService) {
	if h.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	// The body is read whole into one pooled buffer and the pattern text
	// unescaped into another; the first is reused for the reply.
	buf, text := getBuf(), getBuf()
	defer putBuf(buf)
	defer putBuf(text)
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var err error
	*buf, err = readBody(*buf, r.Body)
	var req queryRequest
	if err == nil {
		*text, err = decodeQuery(*buf, &req, *text)
	}
	if err != nil {
		bodyError(w, err)
		return
	}
	// The cheap fields first: a request refused for them must not
	// intern its labels into the shared table or take a memo slot.
	sem, err := parseSemantics(req.Semantics)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := parseTimeout(req.TimeoutMS)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Limit < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("limit must be ≥ 0 (0 = all matches), got %d", req.Limit))
		return
	}
	alg, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, err := h.pattern(*text)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := Query{Pattern: p.graph, parsed: p, Options: parsge.Options{
		Semantics: sem,
		Algorithm: alg,
		Limit:     req.Limit,
		Timeout:   timeout,
	}}

	if req.Stream {
		h.streamQuery(w, r, q, svc, buf)
		return
	}
	var reply Reply
	if req.Mappings {
		reply, err = svc.Enumerate(r.Context(), q)
	} else {
		reply, err = svc.Count(r.Context(), q)
	}
	if err != nil {
		queryError(w, err)
		return
	}
	resp := queryResponse{
		Matches:       reply.Result.Matches,
		Epoch:         reply.Result.Epoch,
		States:        reply.Result.States,
		Truncated:     reply.Result.TimedOut,
		Unsatisfiable: reply.Result.Unsatisfiable,
		CacheHit:      reply.CacheHit,
		Shared:        reply.Shared,
		Large:         reply.Large,
		QueueWaitMS:   durationMS(reply.QueueWait),
		PreprocMS:     durationMS(reply.Result.PreprocTime),
		MatchMS:       durationMS(reply.Result.MatchTime),
		Plan:          reply.Result.Plan.String(),
		Class:         reply.Class.String(),
		ClassEpoch:    reply.ClassEpoch,
		PredictedMS:   durationMS(reply.PredictedCost),
		Mappings:      reply.Mappings,
	}
	*buf = appendQueryResponse((*buf)[:0], &resp)
	writeJSON(w, http.StatusOK, *buf)
}

// streamGrace is how long past its deadline a stream may take to write
// what its run found in time, and its terminal line: a client that keeps
// reading needs a moment, while one that stopped reading holds the
// handler, and a miss's tokens, no longer than this past the deadline.
const streamGrace = 250 * time.Millisecond

// streamQuery writes matches as NDJSON, each line appended into buf and
// written with one Write, in the goroutine that runs the stream: a hit
// is flushed once, at its end, and a miss's lines as they are written.
// A write deadline bounds a client that stops reading: its blocked
// Write fails, the stream ends and releases its tokens, and the handler
// returns. A client that disconnects cancels the request context, which
// tears the run down.
func (h *Server) streamQuery(w http.ResponseWriter, r *http.Request, q Query, svc *targetService, buf *[]byte) {
	st, err := svc.openStream(r.Context(), q)
	if err != nil {
		queryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if !st.deadline.IsZero() {
		// A writer without deadlines (ErrNotSupported) is not bounded.
		http.NewResponseController(w).SetWriteDeadline(st.deadline.Add(streamGrace))
	}
	flusher, _ := w.(http.Flusher)
	flushLines := st.hit == nil && flusher != nil
	e := svc.runStream(r.Context(), &st, func(m []int32) bool {
		*buf = appendStreamLine((*buf)[:0], &streamLine{Mapping: m})
		_, err := w.Write(*buf)
		if err == nil && flushLines {
			flusher.Flush()
		}
		return err == nil
	})
	line := streamLine{Done: true, Matches: e.Result.Matches, Epoch: e.Result.Epoch, Truncated: e.Result.TimedOut}
	if e.Err != nil {
		line.Error = e.Err.Error()
	}
	*buf = appendStreamLine((*buf)[:0], &line)
	w.Write(*buf)
	if flusher != nil {
		flusher.Flush()
	}
}

// censusRequest is the POST .../census body: {"k": 4, "timeout_ms": n,
// "top": n}. top caps the classes returned (default 32, -1 = all); the
// full class total and subgraph count are always reported.
type censusRequest struct {
	K         int   `json:"k"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Top       int   `json:"top,omitempty"`
}

// censusClassJSON is one isomorphism class of a census reply: the count,
// the class identity (the canonical hash, rendered hex), the shape, and
// the representative pattern as a GFF text section — directly
// resubmittable to POST .../query.
type censusClassJSON struct {
	Count   int64  `json:"count"`
	ID      string `json:"id"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Pattern string `json:"pattern"`
}

type censusResponse struct {
	K            int               `json:"k"`
	Epoch        uint64            `json:"epoch"`
	Subgraphs    int64             `json:"subgraphs"`
	ClassesTotal int               `json:"classes_total"`
	Classes      []censusClassJSON `json:"classes"`
	ClassesShown int               `json:"classes_shown"`
	Truncated    bool              `json:"truncated,omitempty"`
	CacheHit     bool              `json:"cache_hit"`
	Shared       bool              `json:"shared,omitempty"`
	QueueWaitMS  float64           `json:"queue_wait_ms"`
	ElapsedMS    float64           `json:"elapsed_ms"`
	MemoHits     int64             `json:"memo_hits"`
	MemoMisses   int64             `json:"memo_misses"`
}

func (h *Server) handleCensus(w http.ResponseWriter, r *http.Request, svc *targetService) {
	if h.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	var req censusRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	if req.K < parsge.MinCensusK || req.K > parsge.MaxCensusK {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("k must be in [%d, %d], got %d", parsge.MinCensusK, parsge.MaxCensusK, req.K))
		return
	}
	timeout, err := parseTimeout(req.TimeoutMS)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	reply, err := svc.Census(r.Context(), CensusRequest{K: req.K, Timeout: timeout})
	if err != nil {
		httpError(w, errorCode(err), err)
		return
	}
	res := reply.Result
	top := req.Top
	if top == 0 {
		top = 32
	}
	shown := res.Classes
	if top > 0 && len(shown) > top {
		shown = shown[:top]
	}
	resp := censusResponse{
		K:            res.K,
		Epoch:        res.Epoch,
		Subgraphs:    res.Subgraphs,
		ClassesTotal: len(res.Classes),
		Classes:      make([]censusClassJSON, len(shown)),
		ClassesShown: len(shown),
		Truncated:    res.TimedOut,
		CacheHit:     reply.CacheHit,
		Shared:       reply.Shared,
		QueueWaitMS:  durationMS(reply.QueueWait),
		ElapsedMS:    durationMS(res.Duration),
		MemoHits:     res.MemoHits,
		MemoMisses:   res.MemoMisses,
	}
	for i, c := range shown {
		resp.Classes[i] = censusClassJSON{
			Count:   c.Count,
			ID:      fmt.Sprintf("%016x", c.Hash),
			Nodes:   c.Pattern.NumNodes(),
			Edges:   c.Pattern.NumEdges(),
			Pattern: h.renderPattern(i, c.Pattern),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// renderPattern serializes a census representative as a GFF section
// under the table lock (label lookups share the interning table with
// pattern parsing).
func (h *Server) renderPattern(i int, g *parsge.Graph) string {
	var b strings.Builder
	h.tableMu.Lock()
	err := graphio.Write(&b, fmt.Sprintf("motif-%d", i), g, h.table)
	h.tableMu.Unlock()
	if err != nil {
		return ""
	}
	return b.String()
}

func (h *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

func (h *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.router.Stats())
}

// updateRequest is the POST /targets/{name}/update body. Labels are
// strings interned into the shared table; an empty or omitted label is
// the unlabeled-graph label.
type updateRequest struct {
	Updates []struct {
		From   int32  `json:"from"`
		To     int32  `json:"to"`
		Label  string `json:"label,omitempty"`
		Remove bool   `json:"remove,omitempty"`
	} `json:"updates"`
}

type updateResponse struct {
	Epoch           uint64  `json:"epoch"`
	Applied         int     `json:"applied"`
	NoOps           int     `json:"noops"`
	TouchedVertices int     `json:"touched_vertices"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// maxUpdateBatch bounds the updates accepted in one POST .../update body.
const maxUpdateBatch = 1 << 16

func (h *Server) handleUpdate(w http.ResponseWriter, r *http.Request, svc *targetService) {
	if h.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	var req updateRequest
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty update batch"))
		return
	}
	if len(req.Updates) > maxUpdateBatch {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch has %d updates, limit %d", len(req.Updates), maxUpdateBatch))
		return
	}
	ups := make([]parsge.EdgeUpdate, len(req.Updates))
	h.tableMu.Lock()
	for i, u := range req.Updates {
		lab := parsge.Label(0)
		if u.Label != "" {
			lab = h.table.Intern(u.Label)
		}
		ups[i] = parsge.EdgeUpdate{From: u.From, To: u.To, Label: lab, Remove: u.Remove}
	}
	h.tableMu.Unlock()
	res, err := svc.Update(r.Context(), ups)
	if err != nil {
		httpError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(updateResponse{
		Epoch:           res.Epoch,
		Applied:         res.Applied,
		NoOps:           res.NoOps,
		TouchedVertices: res.TouchedVertices,
		ElapsedMS:       durationMS(res.Duration),
	})
}
