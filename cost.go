package parsge

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"parsge/internal/domain"
)

// This file exposes the cheap per-query cost signals the service layer's
// admission model classifies on: domain preprocessing run *ahead* of
// admission (it is milliseconds and shares the target's label index),
// summarized as a staged upper bound plus the plan key that names the
// plan histogram bucket the query's run will land in.

// CostEstimate is the pre-admission cost summary of one query: the
// resolved preprocessing plan, the staged domain sizes it produced, and
// the snapshot epoch everything was pinned at. It is an upper-bound
// signal, not a prediction — callers combine it with what runs of the
// same plan have cost to price the query.
type CostEstimate struct {
	// Plan is the resolved preprocessing plan with its timings and
	// staged domain sizes; nil when the resolved engine is plain RI
	// (which computes no domains — the estimate still runs them for the
	// bound, but the query itself will record no plan).
	Plan *PlanInfo
	// PlanKey is the histogram bucket key the query's result will land
	// in: Plan.String(), or "none" for plain RI.
	PlanKey string
	// LogDomainProduct is log2 of the product of final domain sizes —
	// the staged upper bound on candidate assignments. Zero when
	// Unsatisfiable.
	LogDomainProduct float64
	// DomainFinal is the total domain size (sum over pattern nodes)
	// after all propagation.
	DomainFinal int
	// PatternNodes and PatternEdges describe the simplified pattern.
	PatternNodes, PatternEdges int
	// TargetDensity is the target's arc density m/(n·(n−1)) — the
	// signal that scales how explosive a loose domain bound really is.
	TargetDensity float64
	// Unsatisfiable reports preprocessing proved zero matches: some
	// domain ran empty, so the query is free however large the pattern.
	Unsatisfiable bool
	// PreprocTime is the wall time this estimate spent (domain
	// computation included).
	PreprocTime time.Duration
	// Epoch is the target mutation epoch the estimate was computed
	// against. An admission decision derived from this estimate is
	// attributable to exactly this graph version, and a run through
	// Target.EnumerateEstimated answers at it.
	Epoch uint64

	// pin hands the estimate's snapshot and domains to the run it
	// priced; nil in a zero or Detached estimate.
	pin *estimatePin
}

// estimatePin is what EstimateCost leaves for Target.EnumerateEstimated:
// the snapshot it computed on, what the domains were computed for, and
// the domains themselves (kept only when the resolved engine uses them).
type estimatePin struct {
	tgt     *Target
	st      *targetState
	pattern *Graph
	sem     Semantics
	filters domain.Filters
	// doms is taken by the first run that adopts it: forward checking
	// refines the domains in place, so they serve one search only.
	doms  atomic.Pointer[domain.Domains]
	stats domain.ComputeStats
	took  time.Duration // the estimate's wall time up to the computed domains
}

// covers reports whether the pin was computed by t for this query: the
// same pattern under the same semantics and filters. A nil pin covers
// nothing.
func (p *estimatePin) covers(t *Target, pattern *Graph, opts Options) bool {
	if p == nil || p.tgt != t || p.pattern != pattern || p.filters != opts.filters {
		return false
	}
	sem, err := t.ResolveSemantics(opts)
	return err == nil && sem == p.sem
}

// Detached returns the estimate without its snapshot and domains: the
// form to keep beyond the request, for instance in a cache, since the
// domains can be large and the snapshot may be superseded. A run from a
// detached estimate preprocesses afresh on the current snapshot.
func (e CostEstimate) Detached() CostEstimate {
	e.pin = nil
	return e
}

// EstimateCost runs the query's domain preprocessing against the current
// target snapshot and returns the staged cost signals without searching.
// It resolves algorithm, semantics and the preprocessing schedule exactly
// as Enumerate would (so PlanKey matches the bucket the real run will
// record into), pins everything to one snapshot epoch, and costs
// milliseconds — the point is to classify *after* preprocessing instead
// of guessing from pattern size alone. The estimate keeps the snapshot
// and the domains, so the run it admits (Target.EnumerateEstimated) does
// not compute them a second time.
func (t *Target) EstimateCost(ctx context.Context, pattern *Graph, opts Options) (CostEstimate, error) {
	if pattern == nil {
		return CostEstimate{}, fmt.Errorf("parsge: nil pattern graph")
	}
	start := time.Now()
	st := t.state.Load()
	if ctx != nil && ctx.Err() != nil {
		return CostEstimate{Epoch: st.epoch}, ctx.Err()
	}
	alg := st.resolveAlgorithm(opts.Algorithm)
	if !alg.valid() {
		return CostEstimate{}, fmt.Errorf("parsge: unknown algorithm %d", int(alg))
	}
	sem, err := t.ResolveSemantics(opts)
	if err != nil {
		return CostEstimate{}, err
	}
	gp := pattern.Simplify()

	// The domains are computed exactly as the run computes them, so the
	// estimate prices the plan the query will run. Plain RI computes no
	// domains, but the bound is still the best shed signal available,
	// so the estimate always computes them — and keeps them only for an
	// engine that adopts them. The bound is taken here, before the run's
	// forward checking refines them.
	pin := &estimatePin{tgt: t, st: st, pattern: pattern, sem: sem, filters: opts.filters}
	doms, dstats := pin.filters.Compute(gp, st.g, st.index, sem)
	pin.stats, pin.took = dstats, time.Since(start)
	logProd, anyEmpty := doms.LogProduct()

	est := CostEstimate{
		DomainFinal:   dstats.Final,
		PatternNodes:  gp.NumNodes(),
		PatternEdges:  gp.NumEdges(),
		Unsatisfiable: anyEmpty,
		Epoch:         st.epoch,
	}
	if !anyEmpty {
		est.LogDomainProduct = logProd
	}
	if n := st.g.NumNodes(); n > 1 {
		est.TargetDensity = float64(st.g.NumEdges()) / (float64(n) * float64(n-1))
	}
	if alg == RI {
		est.PlanKey = "none" // plain RI records no plan
	} else {
		pin.doms.Store(doms)
		est.Plan = planInfo(&dstats)
		est.PlanKey = est.Plan.String()
	}
	est.PreprocTime = time.Since(start)
	est.pin = pin
	return est, nil
}
