package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parsge"
	"parsge/internal/graphio"
	"parsge/internal/service"
)

// The traced run replays the same op lists with a span around every
// call the benchmark makes into a layer's public function: the handler
// (ServeHTTP on the served stack), the Router method beneath it (on a
// twin router fed the identical op stream, so the served stack runs
// each op once), and, on twin sessions so that the served caches and
// cost history stay untouched, parsge.ReadGraphs, parsge.CanonicalPattern,
// Target.EstimateCost, Target.Enumerate with the served class's workers,
// Target.Census and Target.ApplyUpdates. Spans stay in memory and are
// written out when the run ends.

// span is one timed call. Spans of one op share the op span as parent.
type span struct {
	id, parent int64
	name       string
	start, end int64 // ns since the run began
}

// Span names.
const (
	spanOp        = "op"
	spanHTTP      = "http.ServeHTTP"
	spanRouter    = "service.Router"
	spanParse     = "parsge.ReadGraphs"
	spanCanon     = "parsge.CanonicalPattern"
	spanEstimate  = "Target.EstimateCost"
	spanEnumerate = "Target.Enumerate"
	spanCensus    = "Target.Census"
	spanUpdate    = "Target.ApplyUpdates"
)

// twin is the untouched copy of the stack the traced run calls into.
type twin struct {
	stack    *stack           // the twin router (and its handler, for warm-up)
	sessions []*parsge.Target // twin sessions, one per target
}

func newTwin(r *runner) (*twin, error) {
	st, err := buildStack(r.in, r.warmup)
	if err != nil {
		return nil, err
	}
	wc := &client{r: r, rec: newRecorder()}
	wc.replay(st, r.warm)
	tw := &twin{stack: st}
	for _, g := range r.in.targets {
		s, err := parsge.NewTarget(g, parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		tw.sessions = append(tw.sessions, s)
	}
	return tw, nil
}

// layerTally accumulates one client's per-layer observations.
type layerTally struct {
	httpMS, selfMS, parseMS, canonMS, estimateMS      []float64
	preprocMS, unaryMS, acMS, inducedACMS, matchMS    []float64
	censusMS, updateMS, waitMS                        []float64
	replyBytes, queryReplies                          int64
	classSmall, classLarge, shed, falseShed           int64
	domainFinal, states, matches, steals, matchNS     int64
	parStates, parMaxWorker                           int64
	censusSubgraphs, memoHits, memoMisses             int64
	censusParSubgraphs, censusMaxWorker               int64
	updateTouched, requeries, requeryMisses, twinErrs int64
}

func (l *layerTally) merge(o *layerTally) {
	for _, p := range []struct{ dst, src *[]float64 }{
		{&l.httpMS, &o.httpMS}, {&l.selfMS, &o.selfMS}, {&l.parseMS, &o.parseMS}, {&l.canonMS, &o.canonMS},
		{&l.estimateMS, &o.estimateMS}, {&l.preprocMS, &o.preprocMS}, {&l.unaryMS, &o.unaryMS}, {&l.acMS, &o.acMS},
		{&l.inducedACMS, &o.inducedACMS}, {&l.matchMS, &o.matchMS}, {&l.censusMS, &o.censusMS},
		{&l.updateMS, &o.updateMS}, {&l.waitMS, &o.waitMS},
	} {
		*p.dst = append(*p.dst, *p.src...)
	}
	for _, p := range []struct{ dst, src *int64 }{
		{&l.replyBytes, &o.replyBytes}, {&l.queryReplies, &o.queryReplies}, {&l.classSmall, &o.classSmall},
		{&l.classLarge, &o.classLarge}, {&l.shed, &o.shed}, {&l.falseShed, &o.falseShed},
		{&l.domainFinal, &o.domainFinal}, {&l.states, &o.states}, {&l.matches, &o.matches}, {&l.steals, &o.steals},
		{&l.matchNS, &o.matchNS}, {&l.parStates, &o.parStates}, {&l.parMaxWorker, &o.parMaxWorker},
		{&l.censusSubgraphs, &o.censusSubgraphs}, {&l.memoHits, &o.memoHits}, {&l.memoMisses, &o.memoMisses},
		{&l.censusParSubgraphs, &o.censusParSubgraphs}, {&l.censusMaxWorker, &o.censusMaxWorker},
		{&l.updateTouched, &o.updateTouched}, {&l.requeries, &o.requeries}, {&l.requeryMisses, &o.requeryMisses},
		{&l.twinErrs, &o.twinErrs},
	} {
		*p.dst += *p.src
	}
}

// tracer is one client's span recorder for a traced pass.
type tracer struct {
	r     *runner
	tw    *twin
	base  int64 // span ids of this client and pass start here
	seq   int64
	table *graphio.LabelTable // the twin parse's own label table
	spans []span
	l     layerTally
}

func newTracer(r *runner, tw *twin, base int64) *tracer {
	return &tracer{r: r, tw: tw, base: base, table: r.in.labelTable()}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.r.epoch)) }

// record appends a span of parent that began at start and ends now; it
// returns the span's duration.
func (t *tracer) record(parent int64, name string, start time.Time) time.Duration {
	end := time.Now()
	t.seq++
	t.spans = append(t.spans, span{id: t.base + t.seq, parent: parent, name: name, start: t.since(start), end: t.since(end)})
	return end.Sub(start)
}

// begin reserves the op span's id.
func (t *tracer) begin() int64 {
	t.seq++
	return t.base + t.seq
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layers records the http span of a served op, then repeats the op's
// layer calls on the twins, each under its own span.
func (t *tracer) layers(root int64, start time.Time, lat time.Duration, o op, rep reply, out outcome) {
	ctx := context.Background()
	t.seq++
	t.spans = append(t.spans, span{id: t.base + t.seq, parent: root, name: spanHTTP, start: t.since(start), end: t.since(start.Add(lat))})
	t.l.httpMS = append(t.l.httpMS, ms(lat))
	in := t.r.in
	switch o.kind {
	case kindCensus:
		name := in.names[o.target]
		s := time.Now()
		_, err := t.tw.stack.router.Census(ctx, name, service.CensusRequest{K: censusK})
		t.record(root, spanRouter, s)
		t.check(err)
		if !rep.cacheHit && !rep.shared {
			t.l.waitMS = append(t.l.waitMS, rep.queueWaitMS)
		}
		s = time.Now()
		res, err := t.tw.sessions[o.target].Census(ctx, parsge.CensusOptions{K: censusK, Workers: servedParallel()})
		t.l.censusMS = append(t.l.censusMS, ms(t.record(root, spanCensus, s)))
		if t.check(err) {
			t.l.censusSubgraphs += res.Subgraphs
			t.l.memoHits += res.MemoHits
			t.l.memoMisses += res.MemoMisses
			if mx := maxOf(res.PerWorkerSubgraphs); mx > 0 {
				t.l.censusParSubgraphs += res.Subgraphs
				t.l.censusMaxWorker += mx
			}
		}
	case kindUpdate:
		name := in.names[o.target]
		batch := t.r.batch(o)
		s := time.Now()
		_, err := t.tw.stack.router.Update(ctx, name, batch)
		t.record(root, spanRouter, s)
		t.check(err)
		s = time.Now()
		res, err := t.tw.sessions[o.target].ApplyUpdates(ctx, batch)
		t.l.updateMS = append(t.l.updateMS, ms(t.record(root, spanUpdate, s)))
		if t.check(err) {
			t.l.updateTouched += int64(res.TouchedVertices)
		}
	default:
		t.query(ctx, root, lat, o, rep, out)
	}
	t.spans = append(t.spans, span{id: root, name: spanOp, start: t.since(start), end: t.since(time.Now())})
}

func (t *tracer) query(ctx context.Context, root int64, lat time.Duration, o op, rep reply, out outcome) {
	in := t.r.in
	id := t.r.tr.Idents[o.ident]
	s := time.Now()
	graphs, err := parsge.ReadGraphs(strings.NewReader(in.texts[id.Pattern]), t.table)
	t.l.parseMS = append(t.l.parseMS, ms(t.record(root, spanParse, s)))
	if !t.check(err) || len(graphs) == 0 {
		return
	}
	pattern := graphs[0].Graph
	s = time.Now()
	parsge.CanonicalPattern(pattern)
	t.l.canonMS = append(t.l.canonMS, ms(t.record(root, spanCanon, s)))

	q := service.Query{Pattern: pattern, Options: parsge.Options{Semantics: semantics(id.Sem), Algorithm: parsge.Auto}}
	name := in.names[id.Target]
	router := t.tw.stack.router
	s = time.Now()
	switch o.kind {
	case kindMappings:
		_, err = router.Enumerate(ctx, name, q)
	case kindStream:
		var matches <-chan parsge.Match
		var end <-chan parsge.StreamEnd
		if matches, end, err = router.Stream(ctx, name, q); err == nil {
			for range matches {
			}
			err = (<-end).Err
		}
	default:
		_, err = router.Count(ctx, name, q)
	}
	d := t.record(root, spanRouter, s)
	t.l.selfMS = append(t.l.selfMS, ms(lat-d))
	if err != nil && rep.status == 200 {
		t.l.twinErrs++
	}

	t.l.queryReplies++
	t.l.replyBytes += int64(rep.bytes)
	if o.requery {
		t.l.requeries++
		if !rep.cacheHit {
			t.l.requeryMisses++
		}
	}
	switch rep.class {
	case "small":
		t.l.classSmall++
	case "large":
		t.l.classLarge++
	}
	if rep.class != "" {
		t.l.waitMS = append(t.l.waitMS, rep.queueWaitMS)
	}
	if rep.status == 429 {
		t.l.shed++
	}
	if out == outcomeRefusedWithinCap {
		t.l.falseShed++
	}
	// A stream reply does not say whether the cache served it. Stream
	// ops only replay identities the warm list sent as mappings
	// requests, at an epoch that never changes, so an answered one was
	// served from that entry.
	hit := rep.cacheHit || (o.kind == kindStream && rep.status == 200 && t.r.warmMapped[o.ident])
	if hit || rep.shared || (rep.status != 200 && rep.status != 429) {
		return // the service ran no estimate
	}
	sess := t.tw.sessions[id.Target]
	s = time.Now()
	est, err := sess.EstimateCost(ctx, pattern, q.Options)
	t.l.estimateMS = append(t.l.estimateMS, ms(t.record(root, spanEstimate, s)))
	if t.check(err) {
		t.l.domainFinal += int64(est.DomainFinal)
	}
	if rep.status != 200 {
		return // shed: the service ran no search
	}
	opts := q.Options
	opts.Workers = 1
	if rep.large {
		opts.Workers = servedParallel()
	}
	opts.Timeout = routerConfig().DefaultTimeout
	s = time.Now()
	res, err := sess.Enumerate(ctx, pattern, opts)
	t.record(root, spanEnumerate, s)
	if !t.check(err) {
		return
	}
	t.l.preprocMS = append(t.l.preprocMS, ms(res.PreprocTime))
	t.l.matchMS = append(t.l.matchMS, ms(res.MatchTime))
	if res.Plan != nil {
		t.l.unaryMS = append(t.l.unaryMS, ms(res.Plan.UnaryTime))
		t.l.acMS = append(t.l.acMS, ms(res.Plan.ACTime))
		t.l.inducedACMS = append(t.l.inducedACMS, ms(res.Plan.InducedACTime))
	}
	t.l.states += res.States
	t.l.matches += res.Matches
	t.l.steals += res.Steals
	t.l.matchNS += int64(res.MatchTime)
	if mx := maxOf(res.PerWorkerStates); mx > 0 {
		t.l.parStates += res.States
		t.l.parMaxWorker += mx
	}
}

func (t *tracer) check(err error) bool {
	if err != nil {
		t.l.twinErrs++
		return false
	}
	return true
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// writeSpans writes every span as a CSV line: id,parent,name,start_ns,end_ns.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for _, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
