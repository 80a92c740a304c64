// Package service is the query-serving layer above parsge.Target: it
// multiplexes many concurrent pattern queries from many clients onto one
// shared-memory machine. The paper (Kimmig/Meyerhenke/Strash) parallelizes
// a single enumeration; a production service needs three things on top,
// and this package is exactly those three:
//
//   - A result cache keyed by canonical pattern hash × resolved
//     semantics × options fingerprint (see cacheKey), LRU-bounded by
//     match-count memory, with singleflight deduplication so identical
//     in-flight queries run once and share the result.
//   - Admission control that partitions the machine's worker budget
//     across concurrent queries — large queries get the work-stealing
//     parallel pool, small ones run sequentially — with FIFO queueing,
//     a wait bound, and load shedding under overload (see admission).
//   - Observability: Stats() aggregates the service counters with the
//     Target's session statistics, including the plan histogram that
//     makes the adaptive preprocessing scheduler visible in production.
//
// A Router hosts each target graph as one targetService over a shared
// worker budget, and cmd/sgeserve exposes the router over HTTP; the soak and
// property tests in this package hold it to the brute-force oracle
// under concurrency, cancellation and cache churn.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsge"
	"parsge/internal/graph"
)

// ErrClosed reports a query submitted after Close began draining.
var ErrClosed = errors.New("service: closed")

// Query is one client request: a pattern plus the options it should run
// under. Options.Visit must be nil (the service owns result delivery)
// and Options.Workers is advisory only — admission control, not the
// client, decides the parallelism a query actually gets.
type Query struct {
	Pattern *parsge.Graph
	Options parsge.Options

	// parsed is set by the HTTP layer to the memoized parse the Pattern
	// came from; validate takes its canonical identity instead of
	// recomputing it, but only while parsed.graph is still Pattern.
	parsed *parsedPattern
}

// Reply reports one served query.
type Reply struct {
	// Result is the enumeration outcome. For a cache hit it is the
	// result of the run that populated the entry (its timings describe
	// that run, not this request).
	Result parsge.Result
	// Mappings holds the embeddings in the client pattern's numbering;
	// nil for Count queries. Cached mappings are translated from the
	// canonical numbering through the client pattern's permutation.
	Mappings [][]int32
	// CacheHit reports the reply was served from the result cache;
	// Shared that it was computed once by a concurrent identical query
	// (singleflight) and shared.
	CacheHit, Shared bool
	// Large reports the query was classified large and ran on the
	// parallel pool. QueueWait is the time spent in the admission queue.
	Large     bool
	QueueWait time.Duration
	// Class is the cost model's admission verdict; the zero value marks
	// replies served without an admission decision (cache hits,
	// singleflight followers). ClassEpoch is the target mutation epoch
	// the decision was pinned at. A run admitted on a fresh estimate
	// answers on the estimate's snapshot, so Result.Epoch equals it; one
	// admitted on an estimate-cache hit runs on the current snapshot, so
	// comparing the two audits whether an update landed in between.
	// PredictedCost is the model's cost estimate (0 when no plan history
	// backed one).
	Class         AdmissionClass
	ClassEpoch    uint64
	PredictedCost time.Duration
}

// flightKey identifies one singleflight rendezvous: the result cache
// key, the result shape (a mappings run cannot satisfy waiters joined
// for counts and vice versa — they rendezvous separately), and the
// target mutation epoch. The epoch is what keeps a query arriving
// after ApplyUpdates from latching onto a pre-update leader; it was a
// "#e%d" suffix in a formatted string until sgelint's epochkey
// analyzer demanded a field it could see.
//
//sgelint:epochkey
type flightKey struct {
	key          string
	needMappings bool
	epoch        uint64
}

// targetService multiplexes concurrent queries onto one Target: it is
// one route of a Router, sharing the router's admission with its sibling
// targets. All methods are safe for concurrent use.
type targetService struct {
	cfg   RouterConfig // resolved (withDefaults)
	tgt   *parsge.Target
	cache *cache
	adm   *admission
	// name is the target's routing key and the admission class its
	// queries queue under.
	name string
	// lastUse is the Router's LRU clock at the route's last use; guarded
	// by the Router's mutex.
	lastUse uint64

	// queryRuns and censusRuns are the two instantiations of the shared
	// request loop; censusCache holds complete censuses by K (see
	// census.go).
	queryRuns   flightGroup[flightKey, *entry]
	censusRuns  flightGroup[censusID, *parsge.CensusResult]
	censusCache epochStore[int, *parsge.CensusResult]

	// est is the per-plan realized-cost EWMA the cost model feeds back
	// into; estCache holds cost estimates by cacheKey.
	est      estimator
	estCache epochStore[string, parsge.CostEstimate]

	count counters

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

// counters are the service's own serving counters; Stats copies them.
type counters struct {
	queries, shared, sequential, parallel, census, updates         atomic.Int64
	shedExplosive, deprioritized, mispredictSmall, mispredictLarge atomic.Int64
}

// begin registers an in-flight request, refusing once draining started.
func (s *targetService) begin() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.wg.Add(1)
	return nil
}

// Close drains the service: new queries fail with ErrClosed, in-flight
// ones (streams included) are waited for until ctx fires. The Target is
// not touched — it may be shared with other services.
func (s *targetService) Close(ctx context.Context) error {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// canonBudget caps the individualization search of untrusted patterns:
// 4096 complete orderings is thousands of times what any real labeled
// pattern needs (refinement usually discretizes immediately) yet bounds
// a hostile highly-symmetric pattern — whose canonicalization is
// factorial and would otherwise pin a core before admission control —
// to milliseconds.
const canonBudget = 1 << 12

// parsedPattern is a pattern graph with its canonical identity: the
// canonical encoding and permutation, or ok == false when
// canonicalization exceeded canonBudget. Immutable once built; the HTTP
// memo shares one among every request that posts the same text.
type parsedPattern struct {
	graph *parsge.Graph
	canon []byte
	perm  []int32
	ok    bool
}

// identify canonicalizes g under canonBudget. It is the one place a
// query's identity is computed: on an HTTP memo miss for the memo to
// keep, and in validate for every other query.
func identify(g *parsge.Graph) parsedPattern {
	canon, perm, ok := graph.CanonicalFormBudget(g, canonBudget)
	return parsedPattern{graph: g, canon: canon, perm: perm, ok: ok}
}

// validate normalizes a query and resolves its cache identity. An empty
// key marks the query uncacheable (its canonicalization exceeded
// canonBudget): it bypasses the cache and singleflight and just runs.
func (s *targetService) validate(q Query) (sem parsge.Semantics, perm []int32, key string, err error) {
	if q.Pattern == nil {
		return 0, nil, "", fmt.Errorf("service: nil pattern")
	}
	if q.Options.Visit != nil {
		return 0, nil, "", fmt.Errorf("service: Options.Visit must be nil")
	}
	sem, err = s.tgt.ResolveSemantics(q.Options)
	if err != nil {
		return 0, nil, "", err
	}
	var id parsedPattern
	if q.parsed != nil && q.parsed.graph == q.Pattern {
		id = *q.parsed
	} else {
		id = identify(q.Pattern)
	}
	if !id.ok {
		return sem, nil, "", nil
	}
	return sem, id.perm, cacheKey(id.canon, sem, q.Options), nil
}

// prepared returns the options a query actually runs with: the service
// owns parallelism and result delivery, folds in DefaultTimeout, and
// clamps every timeout — client-supplied or defaulted — to MaxTimeout.
func (s *targetService) prepared(opts parsge.Options, workers int) parsge.Options {
	opts.Workers = workers
	opts.Visit = nil
	opts.Timeout = s.cfg.timeout(opts.Timeout)
	return opts
}

// Count serves a match-count query: cache, then singleflight, then an
// admission-controlled run.
func (s *targetService) Count(ctx context.Context, q Query) (Reply, error) {
	return s.do(ctx, q, false)
}

// Enumerate serves a full-result query: like Count, plus the embeddings
// in the client pattern's numbering. Result sets can be exponential in
// the pattern size — set Options.Limit when serving untrusted patterns.
func (s *targetService) Enumerate(ctx context.Context, q Query) (Reply, error) {
	return s.do(ctx, q, true)
}

// do serves Count and Enumerate through the request loop shared with
// Census; an uncacheable query skips it.
func (s *targetService) do(ctx context.Context, q Query, needMappings bool) (Reply, error) {
	if err := s.begin(); err != nil {
		return Reply{}, err
	}
	defer s.wg.Done()
	sem, perm, key, err := s.validate(q)
	if err != nil {
		return Reply{}, err
	}
	s.count.queries.Add(1)

	if key == "" {
		// Uncacheable (canonicalization over budget): no cache, no
		// singleflight — just an admission-controlled run.
		reply, _, err := s.runLeader(ctx, q, sem, perm, key, needMappings)
		return reply, err
	}
	var reply Reply
	ent, src, err := s.queryRuns.do(ctx,
		func() flightKey { return flightKey{key: key, needMappings: needMappings, epoch: s.tgt.Epoch()} },
		func(k flightKey, count bool) (*entry, bool) {
			return s.cache.get(k.key, k.needMappings, k.epoch, count)
		},
		func() (*entry, bool, error) {
			r, ent, err := s.runLeader(ctx, q, sem, perm, key, needMappings)
			reply = r
			return ent, ent != nil, err
		})
	switch {
	case err != nil:
		return Reply{}, err
	case src == led:
		return reply, nil
	case src == joined:
		s.count.shared.Add(1)
	}
	return s.replyFromEntry(ent, perm, needMappings, src == hit, src == joined), nil
}

// admit classifies q via the cost model, acquires its admission tokens,
// and counts the run. An explosive verdict under ExplosiveShed returns
// an *ExplosiveError without touching the token pool; under
// ExplosiveDeprioritize the query takes pool tokens through the
// low-priority tier. On success the caller runs with `workers`
// parallelism and must call release when the query (or stream) ends.
func (s *targetService) admit(ctx context.Context, q Query, key string) (rec admitRecord, workers int, waited time.Duration, release func(), err error) {
	rec, err = s.classifyQuery(ctx, q, key)
	if err != nil {
		return rec, 0, 0, nil, err
	}
	need := int64(1)
	workers = 1
	low := false
	switch rec.class {
	case ClassLarge:
		need = int64(s.cfg.ParallelWorkers)
		workers = s.cfg.ParallelWorkers
	case ClassExplosive:
		if s.cfg.ExplosivePolicy == ExplosiveShed {
			s.count.shedExplosive.Add(1)
			return rec, 0, 0, nil, &ExplosiveError{
				Predicted:        rec.predicted,
				Plan:             rec.est.PlanKey,
				LogDomainProduct: rec.est.LogDomainProduct,
			}
		}
		need = int64(s.cfg.ParallelWorkers)
		workers = s.cfg.ParallelWorkers
		low = true
	}
	waited, err = s.adm.acquire(ctx, s.name, need, s.cfg.QueueTimeout, low)
	if err != nil {
		return rec, 0, waited, nil, err
	}
	switch {
	case low:
		s.count.deprioritized.Add(1)
		s.count.parallel.Add(1)
	case rec.class == ClassLarge:
		s.count.parallel.Add(1)
	default:
		s.count.sequential.Add(1)
	}
	return rec, workers, waited, func() { s.adm.release(need) }, nil
}

// runLeader acquires admission and runs the query for real, on the
// snapshot and domains of the cost estimate admission classified it by.
// On a complete (un-truncated) run it builds the canonical cache entry,
// caches it, and returns it for singleflight sharing.
func (s *targetService) runLeader(ctx context.Context, q Query, sem parsge.Semantics, perm []int32, key string, needMappings bool) (Reply, *entry, error) {
	rec, workers, waited, release, err := s.admit(ctx, q, key)
	if err != nil {
		return Reply{}, nil, err
	}
	defer release()

	opts := s.prepared(q.Options, workers)
	var mu sync.Mutex
	var mappings [][]int32
	if needMappings {
		opts.Visit = func(m []int32) bool {
			cp := append([]int32(nil), m...)
			mu.Lock()
			mappings = append(mappings, cp)
			mu.Unlock()
			return true
		}
	}
	res, err := s.tgt.EnumerateEstimated(ctx, rec.est, q.Pattern, opts)
	if err != nil {
		return Reply{}, nil, err
	}
	s.observe(ctx, rec, &res)
	reply := Reply{
		Result:        res,
		Mappings:      mappings,
		Large:         rec.class != ClassSmall,
		QueueWait:     waited,
		Class:         rec.class,
		ClassEpoch:    rec.epoch,
		PredictedCost: rec.predicted,
	}
	if res.TimedOut || key == "" {
		// Truncated (Matches is a lower bound) or uncacheable: correct
		// for this caller, but not a result identical queries may reuse.
		return reply, nil, nil
	}
	ent := &entry{key: key, res: res, epoch: res.Epoch}
	if needMappings {
		ent.hasMappings = true
		ent.mappings = make([][]int32, len(mappings))
		for i, m := range mappings {
			ent.mappings[i] = canonical(m, perm)
		}
	}
	s.cachePut(ent)
	return reply, ent, nil
}

// cacheMaxMappingsPerEntry caps the mappings stored in one cache entry;
// a complete result set larger than this is cached count-only.
const cacheMaxMappingsPerEntry = 4096

// cachePut inserts an entry, stripping mappings beyond the per-entry cap
// (the count is still worth caching).
func (s *targetService) cachePut(ent *entry) {
	if len(ent.mappings) > cacheMaxMappingsPerEntry {
		ent = &entry{key: ent.key, res: ent.res, epoch: ent.epoch}
	}
	s.cache.put(ent)
}

// replyFromEntry materializes a cached/shared entry for a client whose
// pattern has canonical permutation perm. The translated mappings share
// one backing array, each a capped subslice of it, so a hit allocates
// the same however many mappings it carries.
func (s *targetService) replyFromEntry(ent *entry, perm []int32, needMappings, hit, shared bool) Reply {
	r := Reply{Result: ent.res, CacheHit: hit, Shared: shared}
	if needMappings {
		r.Mappings = make([][]int32, len(ent.mappings))
		k := len(perm)
		a := make([]int32, len(ent.mappings)*k)
		for i, cm := range ent.mappings {
			m := a[i*k : (i+1)*k : (i+1)*k]
			for v, p := range perm {
				m[v] = cm[p]
			}
			r.Mappings[i] = m
		}
	}
	return r
}

// stream is a query openStream let through, for runStream to run once:
// a cache hit to replay, or a miss with its admission.
type stream struct {
	q        Query
	perm     []int32
	key      string
	deadline time.Time // the end of the query's timeout, from the opening; zero if none
	hit      *entry    // nil for a miss
	rec      admitRecord
	workers  int
	release  func()
}

// openStream validates a streamed query, looks it up in the cache and,
// on a miss, admits it, so every refusal comes back before the caller
// has sent a byte. Streams do not join singleflight: two streams would
// each need every match anyway.
func (s *targetService) openStream(ctx context.Context, q Query) (stream, error) {
	if err := s.begin(); err != nil {
		return stream{}, err
	}
	_, perm, key, err := s.validate(q)
	if err != nil {
		s.wg.Done()
		return stream{}, err
	}
	s.count.queries.Add(1)
	st := stream{q: q, perm: perm, key: key}
	if key != "" { // an uncacheable query never consults the cache
		st.hit, _ = s.cache.get(key, true, s.tgt.Epoch(), true)
	}
	if st.hit == nil {
		if st.rec, st.workers, _, st.release, err = s.admit(ctx, q, key); err != nil {
			s.wg.Done()
			return stream{}, err
		}
	}
	if d := s.cfg.timeout(q.Options.Timeout); d > 0 {
		st.deadline = time.Now().Add(d)
	}
	return st, nil
}

// runStream runs an opened stream in the caller's goroutine: it calls
// visit once per match, one call at a time, on a slice it reuses, and
// returns the stream's end; a visit that returns false truncates the
// stream. A hit replays its entry through one translation buffer. A miss
// passes visit as its Visit, holds its tokens to the end, and fills the
// cache when it completes within the cap.
func (s *targetService) runStream(ctx context.Context, st *stream, visit func([]int32) bool) parsge.StreamEnd {
	defer s.wg.Done()
	if st.hit != nil {
		res := st.hit.res
		m := make([]int32, len(st.perm))
		for _, cm := range st.hit.mappings {
			for v, p := range st.perm {
				m[v] = cm[p]
			}
			if !visit(m) {
				res.TimedOut = true
				break
			}
		}
		return parsge.StreamEnd{Result: res}
	}
	defer st.release()
	opts := s.prepared(st.q.Options, st.workers)
	// Visit runs concurrently on the steal pool: mu serializes visit and
	// guards the mappings collected for the cache and the time in visit.
	var mu sync.Mutex
	var collected [][]int32
	overflow := st.key == "" // uncacheable: don't accumulate for the cache
	var visiting time.Duration
	perm := st.perm // captured alone, so the caller's stream stays off the heap
	opts.Visit = func(m []int32) bool {
		mu.Lock()
		defer mu.Unlock()
		if !overflow {
			if len(collected) >= cacheMaxMappingsPerEntry {
				overflow, collected = true, nil
			} else {
				collected = append(collected, canonical(m, perm))
			}
		}
		start := time.Now()
		ok := visit(m)
		visiting += time.Since(start)
		return ok
	}
	res, err := s.tgt.EnumerateEstimated(ctx, st.rec.est, st.q.Pattern, opts)
	// The cost model prices the search, not the delivery: it gets the
	// run's MatchTime less its time inside visit, and nothing from a run
	// that spent longer in visit than searching.
	if err == nil && 2*visiting <= res.MatchTime {
		searched := res
		searched.MatchTime -= visiting
		s.observe(ctx, st.rec, &searched)
	}
	if err == nil && !res.TimedOut && st.key != "" {
		ent := &entry{key: st.key, res: res, epoch: res.Epoch}
		if !overflow {
			ent.hasMappings = true
			ent.mappings = collected
		}
		s.cache.put(ent)
	}
	return parsge.StreamEnd{Result: res, Err: err}
}

// Stream serves a query as a live match stream over two channels: an
// adapter over openStream and runStream for library callers (the HTTP
// server calls those directly). The matches channel closes when the
// stream ends, then exactly one StreamEnd is delivered (Result.TimedOut
// reports truncation). Cancelling ctx tears the stream down promptly; a
// consumer that stops reading without cancelling holds the stream's
// goroutine, and a miss's tokens, until the query's timeout.
func (s *targetService) Stream(ctx context.Context, q Query) (<-chan parsge.Match, <-chan parsge.StreamEnd, error) {
	st, err := s.openStream(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	// 64 slots let the run keep searching while the consumer handles a
	// match, without buffering a large share of a big result.
	matches := make(chan parsge.Match, 64)
	end := make(chan parsge.StreamEnd, 1)
	go func() {
		sctx, stop := ctx, context.CancelFunc(func() {})
		if !st.deadline.IsZero() {
			sctx, stop = context.WithDeadline(ctx, st.deadline)
		}
		defer stop()
		e := s.runStream(ctx, &st, func(m []int32) bool {
			select {
			case matches <- parsge.Match{Mapping: append([]int32(nil), m...)}:
				return true
			case <-sctx.Done():
				return false
			}
		})
		close(matches)
		end <- e
	}()
	return matches, end, nil
}

// Update applies a batch of edge mutations to the service's target
// (see parsge.Target.ApplyUpdates: batch-atomic, epoch-advancing).
// Queries already running finish on the snapshot they started with;
// queries arriving after Update returns see the new graph, and every
// cache entry of the superseded epoch dies on its next lookup — the
// service can never serve a pre-update result for a post-update query.
// The update takes one admission token, so mutation work queues behind
// the same budget as everything else.
func (s *targetService) Update(ctx context.Context, updates []parsge.EdgeUpdate) (parsge.UpdateResult, error) {
	if err := s.begin(); err != nil {
		return parsge.UpdateResult{}, err
	}
	defer s.wg.Done()
	if _, err := s.adm.acquire(ctx, s.name, 1, s.cfg.QueueTimeout, false); err != nil {
		return parsge.UpdateResult{}, err
	}
	defer s.adm.release(1)
	res, err := s.tgt.ApplyUpdates(ctx, updates)
	if err == nil {
		s.count.updates.Add(1)
	}
	return res, err
}

// Stats is a point-in-time snapshot of the service: its own serving
// counters plus the Target's session statistics (including the plan
// histogram of the adaptive preprocessing scheduler).
type Stats struct {
	// Queries counts every well-formed query the service took on —
	// cache hits included; malformed requests are rejected before
	// counting. Shared counts those served by a singleflight leader.
	Queries, Shared int64
	// Sequential and Parallel count admitted runs by class.
	Sequential, Parallel int64
	// Census counts census requests (a subset of Queries; every admitted
	// census run also counts as Parallel — census is always large).
	// CensusCacheHits and CensusCacheMisses are the per-K census cache
	// counters, separate from the pattern-result cache below.
	Census                             int64
	CensusCacheHits, CensusCacheMisses int64
	// Updates counts applied edge-update batches; Epoch is the target's
	// mutation epoch at snapshot time.
	Updates int64
	Epoch   uint64
	// Cache counters.
	CacheHits, CacheMisses, CacheEvictions int64
	CacheEntries                           int
	CacheCost                              int64
	// Admission counters: tokens in use now, queries queued now, total
	// grants, immediate sheds, queue-wait timeouts, summed queue wait.
	TokensInUse    int64
	Queued         int
	Granted        int64
	Shed           int64
	QueueTimeouts  int64
	TotalQueueWait time.Duration
	// Cost-model counters. ShedExplosive counts queries rejected with
	// ErrPredictedExplosive; Deprioritized those admitted through the
	// low-priority tier. MispredictSmall counts predicted-small queries
	// that timed out, MispredictLarge predicted-large/explosive ones
	// that finished under SmallBudget — the misprediction rate is
	// (MispredictSmall+MispredictLarge) over the model-classified runs.
	// EstimateHits/EstimateMisses are the cost-estimate cache counters.
	ShedExplosive   int64
	Deprioritized   int64
	MispredictSmall int64
	MispredictLarge int64
	EstimateHits    int64
	EstimateMisses  int64
	// Session aggregates everything the Target executed — for queries
	// answered from the cache no new execution happens, which is why
	// Session.Queries can be far below Queries under a hot cache.
	Session parsge.SessionStats
}

// Stats returns the current snapshot.
func (s *targetService) Stats() Stats {
	entries, cost, hits, misses, evictions := s.cache.stats()
	inUse, queued, granted, shed, timedOut, totalWait := s.adm.load()
	return Stats{
		Queries:           s.count.queries.Load(),
		Shared:            s.count.shared.Load(),
		Sequential:        s.count.sequential.Load(),
		Parallel:          s.count.parallel.Load(),
		Census:            s.count.census.Load(),
		CensusCacheHits:   s.censusCache.hits.Load(),
		CensusCacheMisses: s.censusCache.misses.Load(),
		Updates:           s.count.updates.Load(),
		Epoch:             s.tgt.Epoch(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEvictions:    evictions,
		CacheEntries:      entries,
		CacheCost:         cost,
		TokensInUse:       inUse,
		Queued:            queued,
		Granted:           granted,
		Shed:              shed,
		QueueTimeouts:     timedOut,
		TotalQueueWait:    totalWait,
		ShedExplosive:     s.count.shedExplosive.Load(),
		Deprioritized:     s.count.deprioritized.Load(),
		MispredictSmall:   s.count.mispredictSmall.Load(),
		MispredictLarge:   s.count.mispredictLarge.Load(),
		EstimateHits:      s.estCache.hits.Load(),
		EstimateMisses:    s.estCache.misses.Load(),
		Session:           s.tgt.Stats(),
	}
}
