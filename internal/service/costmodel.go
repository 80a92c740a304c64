// Cost-model admission: instead of guessing a query's weight from
// pattern size before preprocessing, the service runs domain
// preprocessing *first* (milliseconds, cached per canonical form via
// the estimate cache) and classifies from what it learns — the
// product-of-domain upper bound, the target's arc density, and the
// plan's realized cost: a per-plan EWMA the service feeds with every
// run it admits, raised by the longest truncated run. Small
// queries take one sequential token, large ones the steal pool, and
// predicted-explosive ones are shed with ErrPredictedExplosive (HTTP
// 429) or deprioritized behind the low-priority admission tier.
// Mispredictions are counted and exported so the model is observable.

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parsge"
)

// AdmissionClass is the cost model's verdict on one query.
type AdmissionClass int

const (
	// classUnset is the zero value: replies served without an admission
	// decision (cache hits, singleflight followers) carry it.
	classUnset AdmissionClass = iota
	// ClassSmall runs on one sequential token.
	ClassSmall
	// ClassLarge runs on the work-stealing parallel pool.
	ClassLarge
	// ClassExplosive is predicted to blow its budget however many
	// workers it gets: shed (ErrPredictedExplosive) or deprioritized,
	// per RouterConfig.ExplosivePolicy.
	ClassExplosive
)

// String renders the class the way /stats and reply JSON show it.
func (c AdmissionClass) String() string {
	switch c {
	case ClassSmall:
		return "small"
	case ClassLarge:
		return "large"
	case ClassExplosive:
		return "explosive"
	default:
		return ""
	}
}

// ExplosivePolicy selects what happens to a ClassExplosive query.
type ExplosivePolicy int

const (
	// ExplosiveShed (the default) rejects the query immediately with an
	// *ExplosiveError wrapping ErrPredictedExplosive; the HTTP layer
	// maps it to 429 with the estimate in the body.
	ExplosiveShed ExplosivePolicy = iota
	// ExplosiveDeprioritize admits the query on the parallel pool but
	// queues it in the low-priority admission tier, behind all normal
	// traffic.
	ExplosiveDeprioritize
)

// ErrPredictedExplosive reports a query shed by the cost model: its
// predicted cost exceeded RouterConfig.ExplosiveBudget (or its domain
// bound exceeded RouterConfig.ExplosiveLogDomain with no history to say
// otherwise).
// Errors returned by the service wrap it in an *ExplosiveError carrying
// the estimate, so clients can back off proportionally.
var ErrPredictedExplosive = errors.New("service: predicted explosive, query shed")

// ExplosiveError is the typed shed verdict: the predicted cost (zero
// when the static domain bound, not history, triggered the shed), the
// plan key the prediction was keyed on, and the domain upper bound.
type ExplosiveError struct {
	// Predicted is the model's cost estimate from plan history; zero
	// when the query was shed on the static domain bound alone.
	Predicted time.Duration
	// Plan is the resolved preprocessing plan key.
	Plan string
	// LogDomainProduct is log2 of the product of final domain sizes.
	LogDomainProduct float64
}

func (e *ExplosiveError) Error() string {
	if e.Predicted > 0 {
		return fmt.Sprintf("service: predicted explosive (plan %s, ~%s), query shed", e.Plan, e.Predicted)
	}
	return fmt.Sprintf("service: predicted explosive (plan %s, log2 bound %.1f), query shed", e.Plan, e.LogDomainProduct)
}

// Unwrap makes errors.Is(err, ErrPredictedExplosive) hold.
func (e *ExplosiveError) Unwrap() error { return ErrPredictedExplosive }

// estimatorAlpha is the EWMA smoothing factor: recent observations
// dominate after ~1/α samples, so a misclassified repeated pattern
// flips class within a handful of queries.
const estimatorAlpha = 0.3

// estimatorMinSamples is how many observations a plan needs before its
// mean is trusted over the static domain-bound heuristic.
const estimatorMinSamples = 3

// planEstimate is one plan's realized-cost state: an EWMA over
// completed runs and a raise-only floor from truncated ones (a run cut
// off at t cost *at least* t — a floor, never a sample).
type planEstimate struct {
	n         int64   // completed observations
	ewma      float64 // seconds, over completed runs
	floor     float64 // seconds, max partial time of truncated runs
	truncated int64
}

// estimator is the per-service realized-cost feedback state, keyed by
// plan rendering. It deliberately ignores epochs: an update rarely
// changes what a plan costs, and when it does the EWMA follows within a
// few runs (the truncation floor only ever rises).
type estimator struct {
	mu    sync.Mutex
	plans map[string]*planEstimate
}

// observe folds one realized cost in. Truncated runs only raise the
// floor — folding their partial timings into the EWMA would bias it
// optimistic (the run was cut off *because* it was expensive).
func (e *estimator) observe(plan string, d time.Duration, truncated bool) {
	sec := d.Seconds()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans == nil {
		e.plans = make(map[string]*planEstimate)
	}
	p := e.plans[plan]
	if p == nil {
		p = &planEstimate{}
		e.plans[plan] = p
	}
	if truncated {
		p.truncated++
		if sec > p.floor {
			p.floor = sec
		}
		return
	}
	if p.n == 0 {
		p.ewma = sec
	} else {
		p.ewma = estimatorAlpha*sec + (1-estimatorAlpha)*p.ewma
	}
	p.n++
}

// predict returns the plan's EWMA mean (seconds), how many completed
// observations back it, and the truncation floor (seconds).
func (e *estimator) predict(plan string) (ewma float64, n int64, floor float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.plans[plan]
	if p == nil {
		return 0, 0, 0
	}
	return p.ewma, p.n, p.floor
}

// admitRecord is one query's admission decision with everything needed
// to attribute and audit it: the class, the prediction it rested on,
// the cost estimate behind it, the snapshot epoch it was pinned at, and
// whether a Classify override made the call — overridden decisions carry
// no estimate and are excluded from the feedback loop, since the model
// never made a prediction to score. The admitted run adopts the
// estimate's snapshot and domains.
type admitRecord struct {
	class     AdmissionClass
	predicted time.Duration
	est       parsge.CostEstimate
	epoch     uint64
	override  bool
}

// predictCost prices the estimate's plan from the service's realized
// costs: the EWMA once estimatorMinSamples completed runs back it,
// raised by the truncation floor. The second return reports whether any
// history backed the number; a truncated run prices the plan even when
// no completed sample exists.
func (s *targetService) predictCost(est parsge.CostEstimate) (time.Duration, bool) {
	ewmaSec, n, floorSec := s.est.predict(est.PlanKey)
	sec := -1.0
	if n >= estimatorMinSamples {
		sec = ewmaSec
	}
	if floorSec > 0 && floorSec > sec {
		sec = floorSec // a truncated run is a cost floor, sample or not
	}
	if sec < 0 {
		return 0, false
	}
	return time.Duration(sec * float64(time.Second)), true
}

// classifyEstimate turns a cost estimate plus history into an admission
// class. The domain score — log2 of candidate assignments, nudged up on
// dense targets where a loose bound is likelier to be realized — is
// *query-specific* evidence; plan history is evidence about the whole
// plan bucket, which many queries share. That asymmetry sets the
// precedence: a query whose own bound crosses ExplosiveLogDomain is
// shed however cheap its plan bucket has been, and a history-predicted
// shed never fires on a query whose own bound sits in small territory —
// one truncated run must not poison every cheap query sharing its plan.
// Between those guards, plan history (when backed by enough samples)
// prices the query against the small/explosive budgets; without
// history the score alone picks the class.
func (s *targetService) classifyEstimate(est parsge.CostEstimate) (AdmissionClass, time.Duration) {
	if est.Unsatisfiable {
		return ClassSmall, 0 // preprocessing proved it free
	}
	explosiveOn := s.cfg.ExplosiveBudget > 0
	score := est.LogDomainProduct + est.TargetDensity*float64(est.PatternNodes)
	if explosiveOn && score >= s.cfg.ExplosiveLogDomain {
		return ClassExplosive, 0
	}
	if pred, ok := s.predictCost(est); ok {
		switch {
		case explosiveOn && pred >= s.cfg.ExplosiveBudget && score > s.cfg.SmallLogDomain:
			return ClassExplosive, pred
		case pred <= s.cfg.SmallBudget:
			return ClassSmall, pred
		default:
			return ClassLarge, pred
		}
	}
	if score <= s.cfg.SmallLogDomain {
		return ClassSmall, 0
	}
	return ClassLarge, 0
}

// estimate returns the query's cost estimate, consulting the estimate
// cache when the query has a cache identity. A cached estimate is valid
// only at the epoch it was computed at (stale estimates must never
// price live queries). The cache holds detached estimates: a fresh
// estimate hands its domains to this request's run alone, while a cache
// hit carries none and its run preprocesses afresh.
func (s *targetService) estimate(ctx context.Context, q Query, key string) (parsge.CostEstimate, error) {
	if key != "" {
		if est, ok := s.estCache.get(key, s.tgt.Epoch(), true); ok {
			return est, nil
		}
	}
	est, err := s.tgt.EstimateCost(ctx, q.Pattern, q.Options)
	if err == nil && key != "" {
		s.estCache.put(key, est.Detached(), est.Epoch)
	}
	return est, err
}

// classifyQuery is the admission front half: it resolves the query's
// class and pins the epoch the decision was made at. A Classify
// override short-circuits the cost model entirely (override=true keeps
// it out of the feedback loop).
func (s *targetService) classifyQuery(ctx context.Context, q Query, key string) (admitRecord, error) {
	if s.cfg.Classify != nil {
		cls := ClassSmall
		if s.cfg.Classify(q.Pattern, q.Options) {
			cls = ClassLarge
		}
		return admitRecord{class: cls, epoch: s.tgt.Epoch(), override: true}, nil
	}
	est, err := s.estimate(ctx, q, key)
	if err != nil {
		return admitRecord{}, err
	}
	cls, pred := s.classifyEstimate(est)
	if cls == ClassSmall && (q.Options.Workers > 1 || q.Options.Workers == parsge.AutoWorkers) {
		// The client asked for parallelism and the model has no reason
		// to shed: honor the request.
		cls = ClassLarge
	}
	if cls == ClassExplosive && q.Options.Limit > 0 {
		// A limit-bounded query cannot realize the full enumeration the
		// domain bound (or the plan's unbounded history) prices; admit
		// it large and let the timeout clamp bound the worst case.
		cls = ClassLarge
	}
	return admitRecord{
		class:     cls,
		predicted: pred,
		est:       est,
		epoch:     est.Epoch,
	}, nil
}

// observe feeds one realized cost back into the estimator and scores
// the prediction: a predicted-small query that timed out and a
// predicted-large/explosive one that finished under the small budget
// are both mispredictions, counted and exported via Stats. A run whose
// caller gave up (ctx done) is truncated by the caller, not by its
// cost, so it is not scored — its partial time still feeds the
// estimator as a cost floor.
func (s *targetService) observe(ctx context.Context, rec admitRecord, res *parsge.Result) {
	if rec.override {
		return // no model prediction to score or train
	}
	plan := "none"
	if res.Plan != nil {
		plan = res.Plan.String()
	}
	s.est.observe(plan, res.MatchTime, res.TimedOut)
	switch {
	case ctx.Err() != nil: // the caller's truncation, not the model's
	case rec.class == ClassSmall && res.TimedOut:
		s.count.mispredictSmall.Add(1)
	case rec.class != ClassSmall && !res.TimedOut && res.MatchTime <= s.cfg.SmallBudget:
		s.count.mispredictLarge.Add(1)
	}
}
