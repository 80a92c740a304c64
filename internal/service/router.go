package service

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"parsge"
)

// This file is the multi-target router: one machine, many named target
// graphs, one shared worker budget. Each target gets its own service —
// own result cache, census cache, singleflight state — but all of them
// queue on a single admission instance, each under its own class, so
// the round-robin discipline in admission.go shares the machine fairly:
// a flood of queries against one target cannot starve the others.
//
// Targets are mutable (Router.Update → Target.ApplyUpdates) and their
// dominant memory cost beyond the graph is the label/NLF index. The
// router bounds that cost with an LRU over *indexes*, not targets: a
// cold target's index is released (Target.ReleaseIndex) when more than
// MaxHotIndexes targets are hot, and rebuilt on demand the next time
// the target is queried (EnsureIndex). Eviction never changes results —
// an index-free target answers every query identically, just with
// whole-vertex-set preprocessing — so the LRU is purely a memory/latency
// trade.

// ErrUnknownTarget reports a request naming a target the router does
// not host.
var ErrUnknownTarget = fmt.Errorf("service: unknown target")

// RouterConfig configures NewRouter. The zero value of every field is a
// usable default. The admission fields apply machine-wide, shared by
// every target; the cache and cost-model fields apply to each added
// target on its own.
type RouterConfig struct {
	// Workers is the machine's total worker budget — the number of
	// admission tokens, shared by every target. Default: GOMAXPROCS.
	Workers int
	// ParallelWorkers is the pool size granted to a large query (its
	// token demand). Default: half the budget, at least 2, at most the
	// budget.
	ParallelWorkers int
	// MaxQueue bounds the admission queue across all targets; a query
	// arriving with the queue full is shed with ErrOverloaded.
	// Default: 8× Workers.
	MaxQueue int
	// QueueTimeout bounds the time a query waits for admission before
	// failing with ErrQueueTimeout. Default: 2s; negative disables.
	QueueTimeout time.Duration
	// CacheMaxMatches is each target's result cache budget in
	// match-count memory units (see entryCost). Default: 1<<20; negative
	// disables caching.
	CacheMaxMatches int64
	// DefaultTimeout is applied to queries that set no Timeout of their
	// own (0 keeps them unbounded). A robustness valve for serving
	// untrusted patterns.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every query and census timeout — client-supplied
	// or defaulted — to the server's budget (0 = no clamp). Without it a
	// client asking for an hour bypasses DefaultTimeout entirely.
	MaxTimeout time.Duration
	// SmallBudget is the cost under which a query is classified small
	// (one sequential token). Default: 25ms.
	SmallBudget time.Duration
	// ExplosiveBudget is the predicted cost at or above which a query is
	// classified explosive (shed or deprioritized, per ExplosivePolicy).
	// Default: MaxTimeout when set, else 30s; negative disables the
	// explosive class entirely (everything expensive is just large).
	ExplosiveBudget time.Duration
	// SmallLogDomain and ExplosiveLogDomain are the history-free
	// fallback thresholds on the domain upper bound (log2 of the product
	// of domain sizes, density-adjusted): at or below SmallLogDomain the
	// query is small, at or above ExplosiveLogDomain explosive.
	// Defaults: 22 and 44.
	SmallLogDomain, ExplosiveLogDomain float64
	// ExplosivePolicy selects shed (default) or deprioritize for
	// explosive-classified queries.
	ExplosivePolicy ExplosivePolicy
	// MaxHotIndexes bounds how many targets may hold their label/NLF
	// index at once; beyond it the least-recently-used target's index
	// is released and rebuilt on demand. 0 means unbounded (no
	// eviction).
	MaxHotIndexes int
	// Classify overrides classification entirely: return true to give
	// the query the parallel pool, false to run it sequentially. No
	// query is shed and the cost model is bypassed — the full-override
	// escape hatch predating the cost model.
	Classify func(pattern *parsge.Graph, opts parsge.Options) bool
}

// withDefaults resolves every zero or negative field to the value the
// router runs with. It is applied once, by NewRouter: a disabled knob
// resolves to 0, which a second application would read as unset.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ParallelWorkers <= 0 {
		c.ParallelWorkers = c.Workers / 2
	}
	if c.ParallelWorkers < 2 {
		c.ParallelWorkers = 2
	}
	if c.ParallelWorkers > c.Workers {
		c.ParallelWorkers = c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8 * c.Workers
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
	if c.CacheMaxMatches == 0 {
		c.CacheMaxMatches = 1 << 20
	}
	if c.CacheMaxMatches < 0 {
		c.CacheMaxMatches = 0 // newCache(0) disables
	}
	if c.SmallBudget <= 0 {
		c.SmallBudget = 25 * time.Millisecond
	}
	if c.ExplosiveBudget == 0 {
		if c.MaxTimeout > 0 {
			c.ExplosiveBudget = c.MaxTimeout
		} else {
			c.ExplosiveBudget = 30 * time.Second
		}
	}
	if c.ExplosiveBudget < 0 {
		c.ExplosiveBudget = 0 // explosive class disabled
	}
	if c.SmallLogDomain == 0 {
		c.SmallLogDomain = 22
	}
	if c.ExplosiveLogDomain == 0 {
		c.ExplosiveLogDomain = 44
	}
	return c
}

// timeout folds DefaultTimeout into a request's own timeout and clamps
// the result to MaxTimeout: queries and censuses share the budget. A
// non-positive timeout counts as unset, so it cannot escape either.
func (c RouterConfig) timeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = c.DefaultTimeout
	}
	if c.MaxTimeout > 0 && (d <= 0 || d > c.MaxTimeout) {
		d = c.MaxTimeout
	}
	return d
}

// TargetInfo describes one hosted target in listings and /stats.
type TargetInfo struct {
	// Name is the routing key.
	Name string
	// Epoch is the target's mutation epoch (0 = never updated).
	Epoch uint64
	// Nodes and Edges describe the current graph version.
	Nodes, Edges int
	// IndexHot reports the label/NLF index is currently resident (false
	// after LRU eviction, until the next query rebuilds it).
	IndexHot bool
}

// RouterStats is a point-in-time snapshot of the router: the shared
// admission state plus every hosted target's service snapshot.
type RouterStats struct {
	// Targets is sorted by name; the map key of PerTarget is the name.
	Targets   []TargetInfo
	PerTarget map[string]Stats
	// Shared admission counters (the per-target Stats repeat these —
	// the admission is shared — so read them here once).
	TokensInUse    int64
	Queued         int
	Granted        int64
	Shed           int64
	QueueTimeouts  int64
	TotalQueueWait time.Duration
}

// Router hosts many named targets behind one shared admission budget.
// All methods are safe for concurrent use.
type Router struct {
	cfg RouterConfig // resolved (withDefaults)
	adm *admission

	mu     sync.Mutex
	routes map[string]*targetService
	clock  uint64 // logical LRU clock: bumped on every route use
	closed bool
}

// info describes the service's target.
func (s *targetService) info() TargetInfo {
	g := s.tgt.Graph()
	return TargetInfo{
		Name:     s.name,
		Epoch:    s.tgt.Epoch(),
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		IndexHot: s.tgt.HasIndex(),
	}
}

// NewRouter builds an empty router; add targets with AddTarget.
func NewRouter(cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	return &Router{
		cfg:    cfg,
		adm:    newAdmission(int64(cfg.Workers), cfg.MaxQueue),
		routes: make(map[string]*targetService),
	}
}

// AddTarget builds a Target session over g and hosts it under name.
// Names are unique; adding to a closed router fails.
func (r *Router) AddTarget(name string, g *parsge.Graph, topts parsge.TargetOptions) error {
	if name == "" {
		return fmt.Errorf("service: empty target name")
	}
	tgt, err := parsge.NewTarget(g, topts)
	if err != nil {
		return err
	}
	return r.AddTargetSession(name, tgt)
}

// AddTargetSession hosts an existing Target session under name.
func (r *Router) AddTargetSession(name string, tgt *parsge.Target) error {
	if name == "" {
		return fmt.Errorf("service: empty target name")
	}
	if tgt == nil {
		return fmt.Errorf("service: nil Target")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.routes[name]; dup {
		return fmt.Errorf("service: duplicate target %q", name)
	}
	r.clock++
	r.routes[name] = &targetService{cfg: r.cfg, tgt: tgt, cache: newCache(r.cfg.CacheMaxMatches), adm: r.adm, name: name, lastUse: r.clock}
	r.enforceIndexBudgetLocked(name)
	return nil
}

// route resolves a name to its service, stamps the LRU clock, restores
// the target's index if it was evicted, and evicts over-budget cold
// indexes.
func (r *Router) route(name string) (*targetService, error) {
	r.mu.Lock()
	svc := r.routes[name]
	if svc == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	r.clock++
	svc.lastUse = r.clock
	r.enforceIndexBudgetLocked(name)
	r.mu.Unlock()
	// Rebuild outside r.mu: index construction is O(graph) and must not
	// block routing to other targets.
	svc.tgt.EnsureIndex()
	return svc, nil
}

// enforceIndexBudgetLocked releases the least-recently-used targets'
// indexes until at most MaxHotIndexes remain hot. The route being
// touched (keep) is never evicted — it is about to serve.
func (r *Router) enforceIndexBudgetLocked(keep string) {
	if r.cfg.MaxHotIndexes <= 0 {
		return
	}
	var hots []*targetService
	for name, svc := range r.routes {
		// The touched route's index may not be resident yet (EnsureIndex
		// runs after the lock drops) — count it as hot so the budget
		// holds after the rebuild.
		if svc.tgt.HasIndex() || name == keep {
			hots = append(hots, svc)
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].lastUse < hots[j].lastUse })
	over := len(hots) - r.cfg.MaxHotIndexes
	for _, svc := range hots {
		if over <= 0 {
			return
		}
		if svc.name == keep {
			continue
		}
		svc.tgt.ReleaseIndex()
		over--
	}
}

// Count serves a match-count query against the named target.
func (r *Router) Count(ctx context.Context, name string, q Query) (Reply, error) {
	svc, err := r.route(name)
	if err != nil {
		return Reply{}, err
	}
	return svc.Count(ctx, q)
}

// Enumerate serves a full-result query against the named target.
func (r *Router) Enumerate(ctx context.Context, name string, q Query) (Reply, error) {
	svc, err := r.route(name)
	if err != nil {
		return Reply{}, err
	}
	return svc.Enumerate(ctx, q)
}

// Stream serves a live match stream from the named target over two
// channels (see targetService.Stream). The channel form is an adapter
// for library callers over the synchronous stream core, which the HTTP
// server calls directly.
func (r *Router) Stream(ctx context.Context, name string, q Query) (<-chan parsge.Match, <-chan parsge.StreamEnd, error) {
	svc, err := r.route(name)
	if err != nil {
		return nil, nil, err
	}
	return svc.Stream(ctx, q)
}

// Census serves a motif census of the named target.
func (r *Router) Census(ctx context.Context, name string, req CensusRequest) (CensusReply, error) {
	svc, err := r.route(name)
	if err != nil {
		return CensusReply{}, err
	}
	return svc.Census(ctx, req)
}

// Update applies an edge-update batch to the named target (see
// targetService.Update: batch-atomic, epoch-advancing,
// cache-invalidating).
func (r *Router) Update(ctx context.Context, name string, updates []parsge.EdgeUpdate) (parsge.UpdateResult, error) {
	svc, err := r.route(name)
	if err != nil {
		return parsge.UpdateResult{}, err
	}
	return svc.Update(ctx, updates)
}

// Targets lists the hosted targets, sorted by name.
func (r *Router) Targets() []TargetInfo {
	svcs := r.services()
	out := make([]TargetInfo, 0, len(svcs))
	for _, svc := range svcs {
		out = append(out, svc.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a point-in-time snapshot of the router.
func (r *Router) Stats() RouterStats {
	svcs := r.services()
	st := RouterStats{PerTarget: make(map[string]Stats, len(svcs))}
	for _, svc := range svcs {
		st.Targets = append(st.Targets, svc.info())
		st.PerTarget[svc.name] = svc.Stats()
	}
	sort.Slice(st.Targets, func(i, j int) bool { return st.Targets[i].Name < st.Targets[j].Name })
	st.TokensInUse, st.Queued, st.Granted, st.Shed, st.QueueTimeouts, st.TotalQueueWait = r.adm.load()
	return st
}

// Close drains every hosted target's service: new requests fail with
// ErrClosed, in-flight ones are waited for until ctx fires.
func (r *Router) Close(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	var first error
	for _, svc := range r.services() {
		if err := svc.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// services returns the hosted services, read under the lock so that
// listing, snapshots and drains run outside it.
func (r *Router) services() []*targetService {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*targetService, 0, len(r.routes))
	for _, svc := range r.routes {
		out = append(out, svc)
	}
	return out
}
