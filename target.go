package parsge

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsge/internal/census"
	"parsge/internal/domain"
	"parsge/internal/lad"
	"parsge/internal/parallel"
	"parsge/internal/ri"
	"parsge/internal/steal"
	"parsge/internal/vf2"
)

// TargetOptions configures NewTarget.
type TargetOptions struct {
	// NLF selects the representation of the index's neighborhood-label-
	// frequency signatures: NLFAuto (the zero value) picks exact
	// signatures below a million target edges and the bucketed compact
	// ones above; NLFCompact forces the compact representation, which
	// bounds signature memory at a constant per target node instead of
	// O(target edges); NLFExact forces exact signatures regardless of
	// size (maximum pruning on huge label-rich targets, at full memory
	// cost). The compact filter is sound (never loses matches) and
	// exact for small label alphabets; on large alphabets it may prune
	// slightly less than the exact signatures.
	NLF NLFMode
	// DefaultSemantics replaces Options.Semantics for queries that
	// leave it at SemanticsUnset: a service can fix the matching
	// semantics once per target.
	// The zero value (SemanticsUnset) keeps the library default
	// (SubgraphIso).
	//
	// Because SemanticsUnset and SubgraphIso are distinct values, an
	// explicit Options{Semantics: SubgraphIso} always overrides this
	// default — a hom- or induced-default Target remains fully
	// queryable under plain subgraph isomorphism.
	DefaultSemantics Semantics
}

// Target is a session handle for one target graph: it precomputes and
// caches target-side state exactly once — the label→node index consumed
// by domain computation and RI root-candidate generation, the degree
// statistics behind the Auto algorithm choice, and a pool of per-worker
// scratch arenas — and then serves any number of queries against that
// graph, concurrently if desired. All methods are safe for concurrent
// use; the amortization is what turns N independent Enumerate calls into
// a query-serving session (the architecture distributed engines build
// their target-side indexes around).
//
// Cancellation is context-driven: every query method takes a
// context.Context, and Options.Timeout (when set) is applied as a
// per-query context.WithTimeout on top of it. Cancellation is polled at
// the same low-frequency points the engines always used, so a search
// terminates promptly (typically well under 100 ms) after the context
// fires, reporting Result.TimedOut.
type Target struct {
	// state is the current graph snapshot plus everything derived from
	// it. Queries load it exactly once at entry and run against that
	// snapshot for their whole lifetime; ApplyUpdates swaps in a new
	// snapshot atomically, so a query never sees a half-applied update
	// and an update never blocks on running queries.
	state atomic.Pointer[targetState]
	arena *ri.Arena // node count is immutable, so the arena survives updates

	// nlfMode reproduces the NewTarget index configuration for
	// incremental maintenance and EnsureIndex rebuilds.
	nlfMode NLFMode
	// updateMu serializes the writers — ApplyUpdates, ReleaseIndex,
	// EnsureIndex — against each other (readers never take it).
	updateMu sync.Mutex

	defaultSemantics Semantics

	// censusMemos keeps Census's class memo per K across runs and
	// epochs (see census.Memos).
	censusMemos census.Memos

	stats sessionStats // aggregate query statistics, see Stats
}

// targetState is one immutable snapshot of the mutable target: the
// graph, the index derived from it (nil after ReleaseIndex), the cached
// statistics behind the Auto algorithm choice, and the mutation epoch
// identifying the snapshot.
type targetState struct {
	g             *Graph
	index         *domain.Index
	meanDegree    float64
	autoAlgorithm Algorithm // chooseAlgorithm(Auto, g), resolved per snapshot
	epoch         uint64
}

// resolveAlgorithm maps Auto to the algorithm cached for this snapshot.
func (st *targetState) resolveAlgorithm(a Algorithm) Algorithm {
	if a == Auto {
		return st.autoAlgorithm
	}
	return a
}

// newTargetState derives the full snapshot state for g at the given
// epoch, building a fresh index.
func newTargetState(g *Graph, mode NLFMode, epoch uint64) *targetState {
	st := &targetState{
		g:             g,
		index:         domain.NewIndexMode(g, mode),
		autoAlgorithm: chooseAlgorithm(Auto, g),
		epoch:         epoch,
	}
	if n := g.NumNodes(); n > 0 {
		st.meanDegree = 2 * float64(g.NumEdges()) / float64(n)
	}
	return st
}

// NewTarget precomputes the reusable target-side state for g.
func NewTarget(g *Graph, opts TargetOptions) (*Target, error) {
	if g == nil {
		return nil, fmt.Errorf("parsge: nil target graph")
	}
	if !opts.DefaultSemantics.Valid() {
		return nil, fmt.Errorf("parsge: unknown semantics %d", int32(opts.DefaultSemantics))
	}
	t := &Target{
		arena:            ri.NewArena(g.NumNodes()),
		nlfMode:          opts.NLF,
		defaultSemantics: opts.DefaultSemantics,
	}
	t.state.Store(newTargetState(g, opts.NLF, 0))
	return t, nil
}

// Graph returns the target graph of the current snapshot. After
// ApplyUpdates the returned graph is the updated one; graphs themselves
// are immutable, so a caller holding an older snapshot's graph keeps a
// consistent (if stale) view.
func (t *Target) Graph() *Graph { return t.state.Load().g }

// MeanDegree returns the current snapshot's mean total degree, the
// statistic the Auto algorithm choice is based on.
func (t *Target) MeanDegree() float64 { return t.state.Load().meanDegree }

// ResolveSemantics reports the effective matching semantics a query with
// these options runs under on this Target: the query's own Semantics
// (an unknown value is an error), else the session's DefaultSemantics
// for a query that chose nothing, and finally the library default
// (SubgraphIso). The service layer keys its result cache by this
// resolved value, so an unset-semantics query and an explicit query of
// the same effective semantics share one cache entry.
func (t *Target) ResolveSemantics(opts Options) (Semantics, error) {
	sem := opts.Semantics
	if !sem.Valid() {
		return 0, fmt.Errorf("parsge: unknown semantics %d", int32(sem))
	}
	if sem == SemanticsUnset {
		sem = t.defaultSemantics
	}
	return sem.Norm(), nil
}

// queryContext derives the per-query context: nil means Background, and
// a positive timeout wraps it in context.WithTimeout. The returned stop
// function must always be called.
func queryContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background() //sgelint:ignore ctxbackground documented nil-ctx default at the public query boundary; every internal path threads the caller ctx
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// Enumerate finds all subgraphs of the session's target isomorphic to
// pattern. Cancelling ctx (or exceeding opts.Timeout) aborts the search
// promptly; the partial Result then has TimedOut set and Matches as a
// lower bound. Safe to call concurrently with any other queries on the
// same Target.
func (t *Target) Enumerate(ctx context.Context, pattern *Graph, opts Options) (Result, error) {
	return t.EnumerateEstimated(ctx, CostEstimate{}, pattern, opts)
}

// EnumerateEstimated is Enumerate for a query that EstimateCost priced
// on this Target with the same pattern, semantics and pruning options
// (Workers, Limit, Timeout and Visit may differ). The run happens on the
// snapshot the estimate pinned, so Result.Epoch == est.Epoch however
// many updates landed in between, and it adopts the domains the estimate
// computed instead of computing them again: the query pays its domain
// preprocessing once, and Result.PreprocTime includes the estimate's
// share of it. One run adopts the domains; a later run from the same
// estimate recomputes them on the same snapshot. A zero or Detached
// estimate, or one computed for another query, runs exactly like
// Enumerate.
func (t *Target) EnumerateEstimated(ctx context.Context, est CostEstimate, pattern *Graph, opts Options) (Result, error) {
	qctx, stop := queryContext(ctx, opts.Timeout)
	defer stop()
	return t.enumerate(qctx, est.pin, pattern, opts)
}

// enumerate runs one query under an already-derived context (Timeout has
// been folded into ctx by the caller) and folds the outcome into the
// session statistics. Every query path — one-shot, batch item, stream —
// funnels through here, which is what makes Stats() complete.
func (t *Target) enumerate(ctx context.Context, pin *estimatePin, pattern *Graph, opts Options) (Result, error) {
	res, err := t.enumerateQuery(ctx, pin, pattern, opts)
	if err == nil {
		t.stats.record(&res)
	}
	return res, err
}

// enumerateQuery runs the query against one target snapshot — the one
// pin's estimate was computed on when the pin covers this query, else
// the current one — and stamps the result with the snapshot's epoch: the
// whole query (preprocessing included) sees exactly one graph version
// however many updates land concurrently.
func (t *Target) enumerateQuery(ctx context.Context, pin *estimatePin, pattern *Graph, opts Options) (Result, error) {
	st := t.state.Load()
	if pin.covers(t, pattern, opts) {
		st = pin.st
	} else {
		pin = nil
	}
	res, err := t.enumerateOn(st, pin, ctx, pattern, opts)
	if err == nil {
		res.Epoch = st.epoch
	}
	return res, err
}

// enumerateOn dispatches one query to the engine the options select,
// running entirely against the given snapshot. A non-nil pin carries the
// domains its estimate computed on st, which the engine adopts.
func (t *Target) enumerateOn(st *targetState, pin *estimatePin, ctx context.Context, pattern *Graph, opts Options) (Result, error) {
	if pattern == nil {
		return Result{}, fmt.Errorf("parsge: nil pattern graph")
	}
	// Check before preprocessing, not just in the search loops:
	// ri.Prepare's domain computation is O(pattern × target) and a
	// cancelled batch draining its queue must not pay it per pattern.
	if ctx.Err() != nil {
		return Result{TimedOut: true}, nil
	}
	alg := st.resolveAlgorithm(opts.Algorithm)
	sem, err := t.ResolveSemantics(opts)
	if err != nil {
		return Result{}, err
	}
	if !alg.valid() {
		return Result{}, fmt.Errorf("parsge: unknown algorithm %d", int(alg))
	}
	var doms *domain.Domains
	var dstats *domain.ComputeStats
	if pin != nil && alg != RI { // every engine but plain RI computes domains
		if doms = pin.doms.Swap(nil); doms != nil {
			dstats = &pin.stats
		}
	}
	filters := opts.Pruning.filters()

	var res Result
	switch alg {
	case VF2:
		r := vf2.Enumerate(pattern, st.g, vf2.Options{
			Limit:       opts.Limit,
			Visit:       opts.Visit,
			Ctx:         ctx,
			Index:       st.index,
			Filters:     filters,
			Domains:     doms,
			DomainStats: dstats,
			Semantics:   sem,
		})
		res = Result{
			Matches:       r.Matches,
			States:        r.States,
			PreprocTime:   r.PreprocTime,
			MatchTime:     r.MatchTime,
			TimedOut:      r.Aborted,
			Unsatisfiable: r.Unsatisfiable,
			Plan:          planInfo(r.PreprocStats),
		}
	case LAD:
		r := lad.Enumerate(pattern, st.g, lad.Options{
			Limit:       opts.Limit,
			Visit:       opts.Visit,
			Ctx:         ctx,
			Index:       st.index,
			Filters:     filters,
			Domains:     doms,
			DomainStats: dstats,
			Semantics:   sem,
		})
		res = Result{
			Matches:       r.Matches,
			States:        r.States,
			PreprocTime:   r.PreprocTime,
			MatchTime:     r.MatchTime,
			TimedOut:      r.Aborted,
			Unsatisfiable: r.Unsatisfiable,
			Plan:          planInfo(r.PreprocStats),
		}
	default:
		prep, err := ri.Prepare(pattern, st.g, ri.Options{
			Variant:     ri.Variant(alg),
			Semantics:   sem,
			Filters:     filters,
			Domains:     doms,
			DomainStats: dstats,
			TargetIndex: st.index,
		})
		if err != nil {
			return Result{}, err
		}
		res = t.search(ctx, prep, opts)
	}
	if doms != nil {
		res.PreprocTime += pin.took // the estimate's share of preprocessing
	}
	return res, nil
}

// search runs the RI-family search over prep: sequentially, or on the
// work-stealing pool when opts.Workers asks for more than one worker.
func (t *Target) search(ctx context.Context, prep *ri.Prepared, opts Options) Result {
	if opts.Workers == AutoWorkers {
		opts.Workers = autoWorkerCount(prep)
	}
	if opts.Workers <= 1 {
		res := prep.Run(ri.RunOptions{Limit: opts.Limit, Visit: opts.Visit, Ctx: ctx, Arena: t.arena})
		return Result{
			Matches:       res.Matches,
			States:        res.States,
			PreprocTime:   res.PreprocTime,
			MatchTime:     res.MatchTime,
			TimedOut:      res.Aborted,
			Unsatisfiable: res.Unsatisfiable,
			DepthStates:   res.DepthStates,
			Plan:          planInfo(prep.PreprocStats),
		}
	}
	res := parallel.Enumerate(prep, parallel.Options{
		Workers:         opts.Workers,
		TaskGroupSize:   opts.TaskGroupSize,
		DisableStealing: opts.DisableStealing,
		Limit:           opts.Limit,
		Visit:           opts.Visit,
		Ctx:             ctx,
		Arena:           t.arena,
		Seed:            opts.Seed,
	})
	return Result{
		Matches:         res.Matches,
		States:          res.States,
		PreprocTime:     res.PreprocTime,
		MatchTime:       res.MatchTime,
		TimedOut:        res.Aborted,
		Unsatisfiable:   res.Unsatisfiable,
		Steals:          res.Steals,
		PerWorkerStates: res.PerWorkerStates,
		DepthStates:     res.DepthStates,
		Plan:            planInfo(prep.PreprocStats),
	}
}

// Count is shorthand for Enumerate(...).Matches.
func (t *Target) Count(ctx context.Context, pattern *Graph, opts Options) (int64, error) {
	res, err := t.Enumerate(ctx, pattern, opts)
	return res.Matches, err
}

// FindAll collects every mapping into a slice (mapping[patternNode] =
// targetNode). It overrides opts.Visit; enumeration order is unspecified
// for parallel runs. Use a Limit for patterns with very many embeddings.
func (t *Target) FindAll(ctx context.Context, pattern *Graph, opts Options) ([][]int32, error) {
	var mu sync.Mutex
	var all [][]int32
	opts.Visit = func(m []int32) bool {
		cp := append([]int32(nil), m...)
		mu.Lock()
		all = append(all, cp)
		mu.Unlock()
		return true
	}
	if _, err := t.Enumerate(ctx, pattern, opts); err != nil {
		return nil, err
	}
	return all, nil
}

// BatchItem is one query of a mixed batch: a pattern plus optional
// per-pattern overrides of the batch-wide Options.
type BatchItem struct {
	// Pattern is the query graph.
	Pattern *Graph
	// Semantics, when not SemanticsUnset, selects this pattern's
	// matching semantics, overriding the batch Options' Semantics — so
	// one batch, served by one shared worker pool, can mix
	// subgraph-iso, induced and homomorphism queries. SemanticsUnset
	// falls back to the batch Options, then to the Target's
	// DefaultSemantics.
	Semantics Semantics
}

// batchRunner schedules whole pattern queries as tasks of the shared
// work-stealing pool: each task is an item index, executed as one
// sequential enumeration. Distinct tasks write distinct result slots,
// and steal.Runtime.Run's completion barrier publishes them to the
// caller.
type batchRunner struct {
	t        *Target
	ctx      context.Context
	items    []BatchItem
	opts     Options
	results  []Result
	errs     []error
	executed []bool
}

// optsFor applies item i's overrides to the batch-wide options.
func (b *batchRunner) optsFor(i int) Options {
	o := b.opts
	if s := b.items[i].Semantics; s != SemanticsUnset {
		o.Semantics = s
	}
	return o
}

func (b *batchRunner) Execute(_ *steal.Worker[int], i int) {
	b.executed[i] = true
	b.results[i], b.errs[i] = b.t.enumerate(b.ctx, nil, b.items[i].Pattern, b.optsFor(i))
}

func (b *batchRunner) PackSteal(_ *steal.Worker[int], i int) int { return i }

// EnumerateBatch answers many pattern queries against the session's
// target over one shared work-stealing pool: patterns are dealt
// round-robin across the workers and idle workers steal queued patterns
// from busy ones, so an irregular mix of cheap and expensive patterns
// still balances. Each query runs with the sequential engine (the
// parallelism is across patterns); target-side preprocessing, the label
// index, and the per-worker scratch arenas are shared by all of them.
//
// Options applies to every pattern, with Workers sizing the shared pool:
// 0 or AutoWorkers means min(GOMAXPROCS, number of patterns). A non-nil
// Visit is invoked concurrently (it must be safe for concurrent use) and
// does not identify which pattern a mapping belongs to — prefer
// per-pattern FindAll when that matters. Timeout and ctx cover the whole
// batch.
//
// The returned slice has one Result per pattern, index-aligned. The
// error is the join of all per-pattern errors (nil when every query
// succeeded); Results of failed patterns are zero.
func (t *Target) EnumerateBatch(ctx context.Context, patterns []*Graph, opts Options) ([]Result, error) {
	items := make([]BatchItem, len(patterns))
	for i, gp := range patterns {
		items[i] = BatchItem{Pattern: gp}
	}
	return t.EnumerateBatchItems(ctx, items, opts)
}

// EnumerateBatchItems is EnumerateBatch with per-pattern overrides:
// each BatchItem may choose its own matching semantics, so a mixed
// workload (say, motif counting under subgraph-iso next to clique
// detection under induced and reachability-style homomorphism queries)
// shares one work-stealing pool instead of needing one batch per
// semantics. Scheduling, cancellation and the result contract are
// exactly those of EnumerateBatch.
func (t *Target) EnumerateBatchItems(ctx context.Context, items []BatchItem, opts Options) ([]Result, error) {
	results := make([]Result, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, nil
	}
	qctx, stop := queryContext(ctx, opts.Timeout)
	defer stop()

	workers := opts.Workers
	if workers == 0 || workers == AutoWorkers {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}

	perQuery := opts
	perQuery.Workers = 1 // parallelism is across patterns
	perQuery.Timeout = 0 // already folded into qctx

	runner := &batchRunner{
		t:        t,
		ctx:      qctx,
		items:    items,
		opts:     perQuery,
		results:  results,
		errs:     errs,
		executed: make([]bool, len(items)),
	}

	if workers <= 1 {
		for i := range items {
			results[i], errs[i] = t.enumerate(qctx, nil, items[i].Pattern, runner.optsFor(i))
		}
		return results, errors.Join(errs...)
	}

	rt, err := steal.New(steal.Config{Workers: workers, Stealing: true, Seed: opts.Seed}, runner)
	if err != nil {
		// workers ≥ 2 here; steal.New cannot fail.
		panic(err)
	}
	for i := range items {
		rt.Seed(i%workers, i)
	}
	rt.Run(qctx)
	// A cancelled pool exits with seeded-but-never-popped patterns
	// still queued; their zero Results must not read as "completed, no
	// matches". Mark them aborted like every executed-and-cancelled
	// query.
	if qctx.Err() != nil {
		for i, done := range runner.executed {
			if !done {
				results[i].TimedOut = true
			}
		}
	}
	return results, errors.Join(errs...)
}

// StreamEnd is the terminal event of EnumerateStreamResult: the final
// Result of the enumeration (Result.TimedOut reports a truncated
// stream — context cancellation or Timeout) and the query error. A
// stream capped by Options.Limit is reported as complete, not
// truncated: the caller received everything it asked for.
type StreamEnd struct {
	Result Result
	Err    error
}

// EnumerateStreamResult runs a query in a background goroutine and
// delivers matches over a channel, for pipelines that consume embeddings
// as they are found rather than buffer them (FindAll) or process them
// inline (Visit). The matches channel is closed when the enumeration
// finishes; the terminal StreamEnd — final Result plus error — is
// delivered on the second channel strictly after the close (always
// exactly one value), so a consumer that received the end event never
// blocks draining the match channel. A consumer that needs to know
// whether a stream it drained was complete checks Result.TimedOut — a
// truncated stream is not an error. opts.Visit must be nil.
//
// Contract: cancelling ctx tears the producer down even when the
// consumer has stopped draining the channel — the producer blocks in a
// send-or-cancelled select, never in a bare send — so abandoning a
// stream costs nothing beyond cancelling its context (this fixes the
// abandonment leak of the pre-session API). A consumer that drains to
// completion needs no cancel; one that may stop early should
// defer cancel() and simply return.
func (t *Target) EnumerateStreamResult(ctx context.Context, pattern *Graph, opts Options) (<-chan Match, <-chan StreamEnd) {
	return t.EnumerateStreamEstimated(ctx, CostEstimate{}, pattern, opts)
}

// EnumerateStreamEstimated is EnumerateStreamResult for a query that
// EstimateCost priced: like EnumerateEstimated, the stream runs on the
// snapshot est pinned and adopts the domains it computed.
func (t *Target) EnumerateStreamEstimated(ctx context.Context, est CostEstimate, pattern *Graph, opts Options) (<-chan Match, <-chan StreamEnd) {
	matches := make(chan Match, 64)
	end := make(chan StreamEnd, 1)
	if opts.Visit != nil {
		close(matches)
		end <- StreamEnd{Err: fmt.Errorf("parsge: EnumerateStreamResult requires a nil Visit")}
		return matches, end
	}
	qctx, stop := queryContext(ctx, opts.Timeout)
	opts.Timeout = 0 // folded into qctx; must not be re-applied downstream
	cancelled := qctx.Done()
	opts.Visit = func(m []int32) bool {
		cp := append([]int32(nil), m...)
		select {
		case matches <- Match{Mapping: cp}:
			return true
		case <-cancelled:
			return false
		}
	}
	go func() {
		defer stop()
		res, err := t.enumerate(qctx, est.pin, pattern, opts)
		// Close strictly before delivering the terminal event. The old
		// order (terminal first, close via defer) let a consumer observe
		// the end of the stream while the match channel was still open —
		// a race a draining consumer could trip over.
		close(matches)
		end <- StreamEnd{Result: res, Err: err}
	}()
	return matches, end
}

// EnumerateStream is EnumerateStreamResult reduced to the error: the
// matches channel closes when the enumeration finishes, then the final
// error is delivered (always exactly one value). Callers that need the
// final Result — e.g. to distinguish a complete stream from a truncated
// one — use EnumerateStreamResult.
func (t *Target) EnumerateStream(ctx context.Context, pattern *Graph, opts Options) (<-chan Match, <-chan error) {
	matches, end := t.EnumerateStreamResult(ctx, pattern, opts)
	done := make(chan error, 1)
	go func() { done <- (<-end).Err }()
	return matches, done
}
