package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"parsge"
	"parsge/internal/service"
)

// runner holds everything a run replays: the inputs, the truth, the op
// lists and their pre-encoded request bodies.
type runner struct {
	in     *inputs
	tr     *truth
	lists  [][]op
	warm   []op
	warmup [][]byte
	// warmMapped marks the identities the warm list leaves a mappings
	// entry for.
	warmMapped map[int]bool
	bodies     map[bodyKey][]byte
	epoch      time.Time // span timestamps count from here
}

type bodyKey struct {
	kind                 opKind
	ident, target, state int
}

func keyOf(o op) bodyKey {
	if o.kind.query() {
		return bodyKey{kind: o.kind, ident: o.ident}
	}
	return bodyKey{kind: o.kind, target: o.target, state: o.state}
}

func newRunner(in *inputs, tr *truth, seed int64) (*runner, error) {
	r := &runner{in: in, tr: tr, lists: opLists(in, tr, seed), warm: warmList(in, tr), bodies: make(map[bodyKey][]byte)}
	var err error
	if r.warmup, err = warmupBodies(in); err != nil {
		return nil, err
	}
	r.warmMapped = make(map[int]bool)
	for _, o := range r.warm {
		if o.kind == kindMappings {
			r.warmMapped[o.ident] = true
		}
	}
	for _, list := range append(append([][]op(nil), r.lists...), r.warm) {
		for _, o := range list {
			k := keyOf(o)
			if _, ok := r.bodies[k]; ok {
				continue
			}
			var v any
			switch o.kind {
			case kindCensus:
				v = map[string]any{"k": censusK, "top": -1}
			case kindUpdate:
				type upd struct {
					From   int32 `json:"from"`
					To     int32 `json:"to"`
					Remove bool  `json:"remove,omitempty"`
				}
				var ups []upd
				for _, u := range r.batch(o) {
					ups = append(ups, upd{u.From, u.To, u.Remove})
				}
				v = map[string]any{"updates": ups}
			default:
				id := tr.Idents[o.ident]
				v = map[string]any{"pattern": in.texts[id.Pattern], "semantics": id.Sem,
					"mappings": o.kind == kindMappings, "stream": o.kind == kindStream}
			}
			if r.bodies[k], err = json.Marshal(v); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// batch is the edge-update batch that moves a writer target to o.state.
func (r *runner) batch(o op) []parsge.EdgeUpdate {
	for i, t := range r.in.writers {
		if t == o.target {
			if o.state == 1 {
				return r.in.forward[i]
			}
			return r.in.undo[i]
		}
	}
	return nil
}

func (r *runner) request(o op) *http.Request {
	switch o.kind {
	case kindCensus:
		return newRequest(censusPath(r.in.names[o.target]), r.bodies[keyOf(o)])
	case kindUpdate:
		return newRequest(updatePath(r.in.names[o.target]), r.bodies[keyOf(o)])
	}
	return newRequest(queryPath(r.in.names[r.tr.Idents[o.ident].Target]), r.bodies[keyOf(o)])
}

func (r *runner) classify(o op, rep reply) outcome {
	switch o.kind {
	case kindCensus:
		return classifyCensus(r.tr.census(o.target, o.state), rep)
	case kindUpdate:
		return classifyUpdate(r.tr.update(o.target, o.state), rep)
	}
	return classifyQuery(r.tr.Idents[o.ident].Expect, rep)
}

// passResult is one replay of every op list on a freshly built stack.
type passResult struct {
	t      tally
	warm   counts // untimed warm-list outcomes (checked, not attempted)
	wall   time.Duration
	setup  time.Duration
	allocs uint64 // bytes allocated during the timed phase
	mallocs,
	gcPauseNS uint64
	// heapSetup and heapAfter are the live heap after setup and after the
	// timed phase, less the live heap before setup.
	heapSetup, heapAfter int64
	clientWall           []time.Duration
	stats                service.RouterStats
	layers               layerTally
	tracers              []*tracer
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// timedSetup builds a stack and times it. It starts from a collected
// heap with its free memory returned to the operating system, as a
// freshly started sgeserve process does, so no build reuses pages an
// earlier pass left behind.
func (r *runner) timedSetup() (*stack, time.Duration, error) {
	debug.FreeOSMemory()
	start := time.Now()
	st, err := buildStack(r.in, r.warmup)
	return st, time.Since(start), err
}

// pass builds a fresh stack, replays the warm list untimed, then replays
// every client's list concurrently, closed-loop. A traced pass also
// feeds every op to a twin (see trace.go) and records spans.
func (r *runner) pass(traced bool, passIndex int) (*passResult, error) {
	res := &passResult{}
	clients := make([]*client, len(r.lists))
	for i, list := range r.lists {
		clients[i] = &client{r: r, rec: newRecorder(), t: newTally(len(list))}
	}
	// The heap figures are taken relative to this point, so what the
	// benchmark keeps of earlier passes cancels out of them.
	base := liveHeap()
	st, setup, err := r.timedSetup()
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.setup = setup
	wc := &client{r: r, rec: newRecorder()}
	wc.replay(st, r.warm)
	res.warm = wc.t.counts

	if traced {
		tw, err := newTwin(r)
		if err != nil {
			return nil, err
		}
		defer tw.stack.close()
		for i, c := range clients {
			c.tr = newTracer(r, tw, int64(passIndex)<<40|int64(i)<<36)
		}
	}
	res.heapSetup = liveHeap() - base
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i, list := range r.lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[i].replay(st, list)
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocs = after.TotalAlloc - before.TotalAlloc
	res.mallocs = after.Mallocs - before.Mallocs
	res.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	res.stats = st.router.Stats()
	res.heapAfter = liveHeap() - base
	for _, c := range clients {
		res.clientWall = append(res.clientWall, c.wall)
		res.t.merge(&c.t)
		if c.tr != nil {
			res.layers.merge(&c.tr.l)
			res.tracers = append(res.tracers, c.tr)
		}
	}
	return res, nil
}

// opsPerSecond is the pass's attempted ops over its timed wall time.
func (p *passResult) opsPerSecond() float64 { return float64(p.t.attempted) / p.wall.Seconds() }

// addRouterStats adds the counters of a router snapshot, summed over its
// targets, to s.
func addRouterStats(s *service.Stats, rs service.RouterStats) {
	for _, t := range rs.PerTarget {
		s.CacheHits += t.CacheHits
		s.CacheMisses += t.CacheMisses
		s.CacheEvictions += t.CacheEvictions
		s.Shared += t.Shared
		s.CensusCacheHits += t.CensusCacheHits
		s.CensusCacheMisses += t.CensusCacheMisses
		s.EstimateHits += t.EstimateHits
		s.EstimateMisses += t.EstimateMisses
		s.MispredictSmall += t.MispredictSmall
		s.MispredictLarge += t.MispredictLarge
	}
	s.QueueTimeouts += rs.QueueTimeouts
}

// passCount is how many timed passes a run of the given length makes,
// at least three. Each pass times its own stack build, which setup_s is
// the median of. It depends on the arguments only, so every run with
// the same --seconds does the same work.
func passCount(w *workload, seconds int) int {
	return max(3, int(math.Round(float64(seconds)/w.passSeconds)))
}

// checkPass reports a traced pass whose twin calls failed: its per-layer
// numbers would describe work that did not happen.
func checkPass(p *passResult) error {
	if p.layers.twinErrs > 0 {
		return fmt.Errorf("%d twin calls failed", p.layers.twinErrs)
	}
	return nil
}
