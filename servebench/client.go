package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// outcome classifies one reply against the ground truth.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeWrongCount
	// outcomeRefusedWithinCap is an HTTP 429 for a query whose reference
	// enumeration fits the cap: a false shed by the cost model.
	outcomeRefusedWithinCap
	outcomeTimedOut
	outcomeError
	// outcomeAnsweredAboveCap is an answer or a timeout for a query the
	// truth expects refused on its domain bound. The expected refusal is
	// the cost model's verdict, not a count, so a service that answers
	// such a query is not wrong; it has no reference to be checked
	// against, so it is not ok either.
	outcomeAnsweredAboveCap
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "wrong_count", "refused_within_cap", "timed_out", "error", "answered_above_cap"}

func (o outcome) String() string { return outcomeNames[o] }

// reply is what a client reads back from one response.
type reply struct {
	status    int
	matches   int64
	digest    string // mappings or census-class digest; "" when the reply has none
	truncated bool
	err       string
	// Service-reported fields, read for the traced run.
	cacheHit, shared, large bool
	class                   string
	queueWaitMS             float64
	bytes                   int
	// Census and update fields.
	applied, noops, touched int
}

// classifyQuery labels a query reply.
func classifyQuery(e expect, r reply) outcome {
	switch {
	case r.status == http.StatusTooManyRequests && e.Refused:
		return outcomeOK
	case r.status == http.StatusTooManyRequests:
		return outcomeRefusedWithinCap
	case e.Refused && (r.status == http.StatusOK || r.status == http.StatusGatewayTimeout):
		return outcomeAnsweredAboveCap
	case r.status == http.StatusGatewayTimeout:
		return outcomeTimedOut
	case r.status != http.StatusOK:
		return outcomeError
	case r.truncated:
		return outcomeTimedOut
	case r.err != "":
		return outcomeError
	case r.matches != e.Count, r.digest != "" && r.digest != e.Digest:
		return outcomeWrongCount
	}
	return outcomeOK
}

// classifyCensus labels a census reply.
func classifyCensus(c *censusTruth, r reply) outcome {
	switch {
	case r.status == http.StatusGatewayTimeout, r.status == http.StatusOK && r.truncated:
		return outcomeTimedOut
	case r.status != http.StatusOK || c == nil:
		return outcomeError
	case r.matches != c.Subgraphs || r.digest != c.Digest:
		return outcomeWrongCount
	}
	return outcomeOK
}

// classifyUpdate labels an update reply.
func classifyUpdate(u *updateTruth, r reply) outcome {
	switch {
	case r.status == http.StatusGatewayTimeout:
		return outcomeTimedOut
	case r.status != http.StatusOK || u == nil:
		return outcomeError
	case r.applied != u.Applied || r.noops != u.NoOps || r.touched != u.Touched:
		return outcomeWrongCount
	}
	return outcomeOK
}

// JSON shapes of the replies (the fields the benchmark reads).
type queryJSON struct {
	Matches     int64     `json:"matches"`
	Truncated   bool      `json:"truncated"`
	CacheHit    bool      `json:"cache_hit"`
	Shared      bool      `json:"shared"`
	Large       bool      `json:"large"`
	Class       string    `json:"class"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	Mappings    [][]int32 `json:"mappings"`
	Error       string    `json:"error"`
}

type streamJSON struct {
	Mapping   []int32 `json:"mapping"`
	Done      bool    `json:"done"`
	Matches   int64   `json:"matches"`
	Truncated bool    `json:"truncated"`
	Error     string  `json:"error"`
}

type censusJSON struct {
	Subgraphs int64 `json:"subgraphs"`
	Classes   []struct {
		Count int64  `json:"count"`
		ID    string `json:"id"`
	} `json:"classes"`
	Truncated   bool    `json:"truncated"`
	CacheHit    bool    `json:"cache_hit"`
	Shared      bool    `json:"shared"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

type updateJSON struct {
	Applied int `json:"applied"`
	NoOps   int `json:"noops"`
	Touched int `json:"touched_vertices"`
}

// readReply decodes a recorded response of the given kind.
func readReply(k opKind, rec *recorder) reply {
	r := reply{status: rec.status, bytes: rec.body.Len()}
	body := rec.body.Bytes()
	if r.status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(body, &e)
		r.err = e.Error
		return r
	}
	switch k {
	case kindCount, kindMappings:
		var q queryJSON
		if err := json.Unmarshal(body, &q); err != nil {
			r.err = err.Error()
			return r
		}
		r.matches, r.truncated, r.err = q.Matches, q.Truncated, q.Error
		r.cacheHit, r.shared, r.large, r.class, r.queueWaitMS = q.CacheHit, q.Shared, q.Large, q.Class, q.QueueWaitMS
		if k == kindMappings {
			var d uint64
			for _, m := range q.Mappings {
				d += mappingHash(m)
			}
			r.digest = hex64(d)
			if int64(len(q.Mappings)) != q.Matches {
				r.err = "mappings disagree with the match count"
			}
		}
	case kindStream:
		var d uint64
		var n int64
		done := false
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var line streamJSON
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				r.err = err.Error()
				return r
			}
			if line.Done {
				done = true
				r.matches, r.truncated, r.err = line.Matches, line.Truncated, line.Error
				continue
			}
			d += mappingHash(line.Mapping)
			n++
		}
		r.digest = hex64(d)
		switch {
		case !done:
			r.err = "stream ended without a done line"
		case n != r.matches && !r.truncated:
			r.err = "streamed mappings disagree with the match count"
		}
	case kindCensus:
		var c censusJSON
		if err := json.Unmarshal(body, &c); err != nil {
			r.err = err.Error()
			return r
		}
		var d uint64
		for _, cl := range c.Classes {
			h, err := strconv.ParseUint(cl.ID, 16, 64)
			if err != nil {
				r.err = err.Error()
				return r
			}
			d += classHash(h, cl.Count)
		}
		r.matches, r.digest, r.truncated = c.Subgraphs, hex64(d), c.Truncated
		r.cacheHit, r.shared, r.queueWaitMS = c.CacheHit, c.Shared, c.QueueWaitMS
	case kindUpdate:
		var u updateJSON
		if err := json.Unmarshal(body, &u); err != nil {
			r.err = err.Error()
			return r
		}
		r.applied, r.noops, r.touched = u.Applied, u.NoOps, u.Touched
	}
	return r
}

// counts are attempted ops and their outcomes.
type counts struct {
	attempted int64
	outcomes  [numOutcomes]int64
}

func (c *counts) merge(o *counts) {
	c.attempted += o.attempted
	for i := range c.outcomes {
		c.outcomes[i] += o.outcomes[i]
	}
}

// tally accumulates one client's outcomes and latencies.
type tally struct {
	counts
	// Latencies (ms) of ok ops by kind.
	queryMS, updateMS, censusMS []float64
}

// newTally sizes the query latencies for n ops up front, so the memory a
// client holds does not depend on how many of its ops were ok.
func newTally(n int) tally { return tally{queryMS: make([]float64, 0, n)} }

func (t *tally) add(o op, out outcome, lat time.Duration) {
	t.attempted++
	t.outcomes[out]++
	if out != outcomeOK {
		return
	}
	ms := float64(lat) / float64(time.Millisecond)
	switch o.kind {
	case kindCensus:
		t.censusMS = append(t.censusMS, ms)
	case kindUpdate:
		t.updateMS = append(t.updateMS, ms)
	default:
		t.queryMS = append(t.queryMS, ms)
	}
}

func (t *tally) merge(o *tally) {
	t.counts.merge(&o.counts)
	t.queryMS = append(t.queryMS, o.queryMS...)
	t.updateMS = append(t.updateMS, o.updateMS...)
	t.censusMS = append(t.censusMS, o.censusMS...)
}

// client replays one op list against a stack, closed-loop: the next
// request goes out when the previous reply is read.
type client struct {
	r   *runner
	rec *recorder
	t   tally
	// tr is non-nil in traced passes.
	tr *tracer
	// wall is how long the last replay took.
	wall time.Duration
}

func (c *client) replay(st *stack, ops []op) {
	start := time.Now()
	for _, o := range ops {
		c.do(st, o)
	}
	c.wall = time.Since(start)
}

func (c *client) do(st *stack, o op) {
	req := c.r.request(o)
	c.rec.reset()
	var root int64
	if c.tr != nil {
		root = c.tr.begin()
	}
	start := time.Now()
	st.handler.ServeHTTP(c.rec, req)
	lat := time.Since(start)
	rep := readReply(o.kind, c.rec)
	out := c.r.classify(o, rep)
	c.t.add(o, out, lat)
	if c.tr != nil {
		c.tr.layers(root, start, lat, o, rep, out)
	}
}
