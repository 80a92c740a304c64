package parsge

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsge/internal/census"
	"parsge/internal/domain"
	"parsge/internal/lad"
	"parsge/internal/parallel"
	"parsge/internal/ri"
	"parsge/internal/vf2"
)

// TargetOptions configures NewTarget.
type TargetOptions struct {
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
func newTargetState(g *Graph, epoch uint64) *targetState {
	st := &targetState{
		g:             g,
		index:         domain.NewIndex(g),
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
		defaultSemantics: opts.DefaultSemantics,
	}
	t.state.Store(newTargetState(g, 0))
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
// on this Target with the same pattern and semantics (Workers, Limit,
// Timeout and Visit may differ). The run happens on the snapshot the
// estimate pinned, so Result.Epoch == est.Epoch however many updates
// landed in between, and it adopts the domains the estimate computed
// instead of computing them again: the query pays its domain
// preprocessing once, and Result.PreprocTime includes the estimate's
// share of it. One run adopts the domains; a later run from the same
// estimate recomputes them on the same snapshot. A zero or Detached
// estimate, or one computed for another query, runs exactly like
// Enumerate.
func (t *Target) EnumerateEstimated(ctx context.Context, est CostEstimate, pattern *Graph, opts Options) (Result, error) {
	qctx, stop := queryContext(ctx, opts.Timeout)
	defer stop()
	// The query runs against one target snapshot — the one the estimate
	// was computed on when its pin covers this query, else the current
	// one — and is stamped with that snapshot's epoch: the whole query
	// (preprocessing included) sees exactly one graph version however
	// many updates land concurrently.
	st, pin := t.state.Load(), est.pin
	if pin.covers(t, pattern, opts) {
		st = pin.st
	} else {
		pin = nil
	}
	res, err := t.enumerateOn(st, pin, qctx, pattern, opts)
	if err != nil {
		return res, err
	}
	res.Epoch = st.epoch
	// Every query funnels through here, which is what makes Stats()
	// complete.
	t.stats.record(&res)
	return res, nil
}

// enumerateOn dispatches one query to the engine the options select,
// running entirely against the given snapshot. A non-nil pin carries the
// domains its estimate computed on st, which the engine adopts.
func (t *Target) enumerateOn(st *targetState, pin *estimatePin, ctx context.Context, pattern *Graph, opts Options) (Result, error) {
	if pattern == nil {
		return Result{}, fmt.Errorf("parsge: nil pattern graph")
	}
	// Check before preprocessing, not just in the search loops:
	// ri.Prepare's domain computation is O(pattern × target) and a query
	// whose context fired before it started must not pay it.
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
	var res Result
	switch alg {
	case VF2:
		r := vf2.Enumerate(pattern, st.g, vf2.Options{
			Limit:       opts.Limit,
			Visit:       opts.Visit,
			Ctx:         ctx,
			Index:       st.index,
			Filters:     opts.filters,
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
			Filters:     opts.filters,
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
			Filters:     opts.filters,
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
		Workers:       opts.Workers,
		TaskGroupSize: opts.TaskGroupSize,
		Limit:         opts.Limit,
		Visit:         opts.Visit,
		Ctx:           ctx,
		Arena:         t.arena,
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

// StreamEnd is the terminal event of a match stream: the final Result of
// the enumeration (Result.TimedOut reports a truncated stream — context
// cancellation, Timeout, or a consumer that stopped it) and the query
// error. A stream capped by Options.Limit is reported as complete, not
// truncated: the caller received everything it asked for. The service
// layer's stream core calls back once per match and returns the
// StreamEnd; its channel form, an adapter for library callers, delivers
// Match values and then the StreamEnd. The HTTP server calls the core.
type StreamEnd struct {
	Result Result
	Err    error
}
