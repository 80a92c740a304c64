package parsge

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements session-level observability: a Target aggregates
// what every query it served did — how many, how long, and crucially
// *which preprocessing plan* the adaptive scheduler resolved for each —
// into a PlanHistogram, so a long-running service can see the scheduler
// behave (or misbehave) in production instead of only in per-query
// Result fields that nothing collects. Target.Stats() returns a
// consistent snapshot; the service layer and sgeserve's /stats endpoint
// build on it.

// PlanBucket aggregates every query whose preprocessing resolved to one
// filter plan (bucketed by the plan's String rendering, e.g.
// "nlf+ac:adaptive:1" or "ac:fixpoint+inducedAC"), across every target
// mutation epoch: the histogram holds one bucket per distinct plan, so
// it stays bounded however many updates a long-running target takes.
type PlanBucket struct {
	// Plan is the bucket key: the PlanInfo.String() rendering.
	Plan string
	// Count is the number of queries that resolved to this plan and ran
	// to completion. Truncated runs (timed out or aborted) are counted
	// separately — see Truncated — so mean costs derived from this bucket
	// are not biased optimistic by partial timings.
	Count int64
	// UnaryTime, ACTime and InducedACTime are summed over the bucket's
	// queries, so Time/Count gives the mean per-filter cost of the plan.
	UnaryTime, ACTime, InducedACTime time.Duration
	// MatchTime is the summed search wall time of the bucket's *completed*
	// queries; MatchTime/Count is the plan's historical mean match cost.
	MatchTime time.Duration
	// Truncated counts runs that timed out or were aborted mid-search;
	// TruncatedTime sums their partial match wall times. A truncated
	// timing is a cost *floor* (the query cost at least that much), never
	// a sample, which is why it is kept out of Count/MatchTime.
	Truncated     int64
	TruncatedTime time.Duration
	// DomainAfterUnary and DomainFinal are summed staged domain sizes —
	// the aggregate pruning trace of the plan.
	DomainAfterUnary, DomainFinal int64
}

// PlanHistogram is the distribution of resolved preprocessing plans over
// a session's queries: the observable footprint of the adaptive
// scheduler (ROADMAP: "a session-level plan histogram would make the
// scheduler's behavior observable in production").
type PlanHistogram struct {
	// Planned counts the queries that reported a plan; NoPlan those that
	// ran without domain preprocessing (plain RI) or were cancelled
	// before preprocessing.
	Planned, NoPlan int64
	// Buckets is sorted by descending Count (ties by plan string).
	Buckets []PlanBucket
}

// Bucket returns the bucket for a plan rendering, or a zero bucket when
// no query resolved to it.
func (h *PlanHistogram) Bucket(plan string) PlanBucket {
	for _, b := range h.Buckets {
		if b.Plan == plan {
			return b
		}
	}
	return PlanBucket{Plan: plan}
}

// SessionStats is a snapshot of everything a Target did since NewTarget:
// query and match totals, aggregate timings, and the plan histogram.
type SessionStats struct {
	// Queries counts every enumeration and census the session answered
	// (queries that failed validation do not count).
	Queries int64
	// Matches and States are summed over all queries.
	Matches, States int64
	// Timeouts counts queries ended early by context, Timeout or a
	// Visit stop (a Limit-capped query counts as complete, not ended
	// early); Unsatisfiable those preprocessing proved empty.
	Timeouts, Unsatisfiable int64
	// PreprocTime and MatchTime are summed wall times (concurrent
	// queries overlap, so these can exceed elapsed wall time).
	PreprocTime, MatchTime time.Duration
	// Steals is the summed stolen task-group count of parallel queries.
	Steals int64
	// Plans is the resolved-plan histogram over all queries.
	Plans PlanHistogram
}

// sessionStats is the mutable accumulator behind Target.Stats.
type sessionStats struct {
	mu      sync.Mutex
	queries int64
	matches int64
	states  int64
	timeout int64
	unsat   int64
	preproc time.Duration
	match   time.Duration
	steals  int64
	noPlan  int64
	buckets map[string]*PlanBucket
}

// record folds one completed query result into the accumulator.
func (s *sessionStats) record(res *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	s.matches += res.Matches
	s.states += res.States
	if res.TimedOut {
		s.timeout++
	}
	if res.Unsatisfiable {
		s.unsat++
	}
	s.preproc += res.PreprocTime
	s.match += res.MatchTime
	s.steals += res.Steals
	p := res.Plan
	if p == nil {
		s.noPlan++
		return
	}
	b := s.bucket(p.String())
	if res.TimedOut {
		// A truncated run's match time is a cost floor, not a sample:
		// folding it into Count/MatchTime would bias per-plan means
		// optimistic (the run was cut off *because* it was expensive).
		b.Truncated++
		b.TruncatedTime += res.MatchTime
		return
	}
	b.Count++
	b.UnaryTime += p.UnaryTime
	b.ACTime += p.ACTime
	b.InducedACTime += p.InducedACTime
	b.MatchTime += res.MatchTime
	b.DomainAfterUnary += int64(p.DomainAfterUnary)
	b.DomainFinal += int64(p.DomainFinal)
}

// recordCensus folds one census run into the accumulator. A census is a
// query like any other for the session totals — Subgraphs stands in for
// both matches and states (each emitted subgraph is one unit of found
// result and one unit of explored work) — and lands in the plan
// histogram under the bucket "census:k=<K>", so a service's funnel sees
// census traffic next to the enumeration plans.
func (s *sessionStats) recordCensus(res *CensusResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	s.matches += res.Subgraphs
	s.states += res.Subgraphs
	if res.TimedOut {
		s.timeout++
	}
	s.match += res.Duration
	b := s.bucket(fmt.Sprintf("census:k=%d", res.K))
	if res.TimedOut {
		b.Truncated++
		b.TruncatedTime += res.Duration
		return
	}
	b.Count++
	b.MatchTime += res.Duration
}

// bucket returns (creating on demand) the accumulator bucket for one
// plan.
func (s *sessionStats) bucket(plan string) *PlanBucket {
	if s.buckets == nil {
		s.buckets = make(map[string]*PlanBucket)
	}
	b := s.buckets[plan]
	if b == nil {
		b = &PlanBucket{Plan: plan}
		s.buckets[plan] = b
	}
	return b
}

// snapshot returns a consistent copy.
func (s *sessionStats) snapshot() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SessionStats{
		Queries:       s.queries,
		Matches:       s.matches,
		States:        s.states,
		Timeouts:      s.timeout,
		Unsatisfiable: s.unsat,
		PreprocTime:   s.preproc,
		MatchTime:     s.match,
		Steals:        s.steals,
		Plans:         PlanHistogram{NoPlan: s.noPlan},
	}
	for _, b := range s.buckets {
		out.Plans.Planned += b.Count + b.Truncated
		out.Plans.Buckets = append(out.Plans.Buckets, *b)
	}
	sort.Slice(out.Plans.Buckets, func(i, j int) bool {
		bi, bj := out.Plans.Buckets[i], out.Plans.Buckets[j]
		if bi.Count != bj.Count {
			return bi.Count > bj.Count
		}
		return bi.Plan < bj.Plan
	})
	return out
}

// Stats returns a snapshot of the session's aggregate query statistics,
// including the plan histogram. Safe for concurrent use with queries;
// concurrent queries not yet completed are not included.
func (t *Target) Stats() SessionStats { return t.stats.snapshot() }
