// Package vf2 implements the VF2 subgraph matching algorithm of Cordella,
// Foggia, Sansone and Vento (IEEE TPAMI 2004) as the comparison baseline
// the paper situates RI against (Kimmig et al. §2.2.1).
//
// Unlike RI's static ordering, VF2 uses a *dynamic* variable ordering: at
// every state it selects the next pattern node from the connectivity
// fringe of the partial mapping, paying per-state selection cost for a
// potentially smaller search space. The implementation enumerates
// matches with node- and edge-label compatibility under any
// graph.Semantics (non-induced by default) — the same semantics axis as
// internal/ri — so the two engines are interchangeable oracles for one
// another in tests and baselines in benchmarks.
//
// The classic VF2 feasibility rules include lookahead counts over the
// "terminal" sets (neighbors of the mapped region). For non-induced
// matching only the conservative parts of those rules are valid; we use
// degree lookahead and fringe-connectivity checks — plus, by default,
// the shared semantics-aware domain preprocessing of internal/domain
// (label/degree/NLF filters and arc consistency): domains are computed
// once before the search and consulted as the first feasibility rule,
// so VF2 benefits from the same candidate reductions as the RI-DS
// family while keeping its dynamic ordering. SkipDomains restores the
// classic domain-free baseline for comparison runs.
package vf2

import (
	"context"
	"time"

	"parsge/internal/domain"
	"parsge/internal/graph"
)

// Options configures an enumeration run.
type Options struct {
	// Limit stops the search after this many matches (0 = all).
	Limit int64
	// Visit is called per match with the mapping indexed by pattern
	// node (reused slice; copy to retain). Returning false stops.
	Visit func(mapping []int32) bool
	// Ctx, when non-nil, cooperatively aborts the search soon after the
	// context is cancelled (polled every cancelCheckMask+1 states).
	Ctx context.Context
	// Index, when non-nil and built for the same target, speeds up the
	// domain preprocessing (label buckets + precomputed NLF data).
	Index *domain.Index
	// SkipDomains disables domain preprocessing entirely, restoring the
	// classic VF2 baseline (label + degree + edge checks only). Used by
	// comparison benchmarks and differential tests.
	SkipDomains bool
	// Filters are the domain preprocessing knobs; the resolved plan is
	// reported in Result.PreprocStats. Under the bitset kernel the
	// per-candidate edge and induced non-edge checks are bit tests on
	// graph.BitGraph adjacency rows instead of CSR binary searches.
	domain.Filters
	// Domains, when non-nil, are domains Filters.Compute already
	// computed for this pattern, target, index and semantics, with
	// DomainStats their report: preprocessing adopts them instead of
	// computing them again.
	Domains     *domain.Domains
	DomainStats *domain.ComputeStats
	// Semantics selects the matching semantics (zero value: normalized
	// to non-induced subgraph isomorphism, identical to internal/ri's
	// default, so the engines stay interchangeable oracles across all
	// semantics).
	Semantics graph.Semantics
}

// Result reports an enumeration run.
type Result struct {
	Matches int64
	States  int64 // candidate pairs examined
	// PreprocTime covers the domain computation (zero with SkipDomains).
	PreprocTime time.Duration
	// PreprocStats reports the resolved filter plan and per-filter
	// timings of domain preprocessing (nil with SkipDomains).
	PreprocStats *domain.ComputeStats
	MatchTime    time.Duration
	Aborted      bool
	// Unsatisfiable reports that domain preprocessing proved zero
	// matches without any search.
	Unsatisfiable bool
}

const cancelCheckMask = 0x3FF

type state struct {
	gp, gt *graph.Graph
	opts   Options
	doms   *domain.Domains // nil with SkipDomains
	// rows are the target's bitset adjacency rows under the bitset
	// kernel (nil otherwise); feasible reads them instead of the CSR.
	rows *graph.BitGraph

	core      []int32 // pattern node → target node or -1
	used      []bool  // target node used
	injective bool
	induced   bool
	degPrune  bool
	depth     int
	matches   int64
	states    int64
	done      <-chan struct{}
	stopped   bool
	aborted   bool
}

// Enumerate lists all label-compatible embeddings of gp in gt under the
// configured semantics (non-induced subgraph isomorphism by default).
func Enumerate(gp, gt *graph.Graph, opts Options) Result {
	start := time.Now()
	opts.Semantics = opts.Semantics.Norm()
	gp = gp.Simplify() // duplicate pattern edges would poison degree pruning
	s := &state{
		gp:        gp,
		gt:        gt,
		opts:      opts,
		core:      make([]int32, gp.NumNodes()),
		used:      make([]bool, gt.NumNodes()),
		injective: opts.Semantics.Injective(),
		induced:   opts.Semantics.Induced(),
		degPrune:  opts.Semantics.DegreePruning(),
	}
	res := Result{}
	if !opts.SkipDomains {
		s.doms, res.PreprocStats = opts.Domains, opts.DomainStats
		if s.doms == nil {
			var dstats domain.ComputeStats
			s.doms, dstats = opts.Filters.Compute(gp, gt, opts.Index, opts.Semantics)
			res.PreprocStats = &dstats
		}
		s.rows = res.PreprocStats.Rows
		res.PreprocTime = time.Since(start)
		if gp.NumNodes() > 0 && s.doms.AnyEmpty() {
			res.Unsatisfiable = true
			return res
		}
	}
	if s.rows == nil && domain.ResolveKernel(opts.Kernel, gt.NumNodes()) == domain.KernelBitset {
		if opts.Index != nil && opts.Index.NumNodes() == gt.NumNodes() {
			s.rows = opts.Index.Rows(gt)
		} else {
			s.rows = graph.NewBitGraph(gt)
		}
	}
	for i := range s.core {
		s.core[i] = -1
	}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
		if opts.Ctx.Err() != nil {
			s.aborted = true
		}
	}
	// Injective semantics cannot fit a larger pattern into a smaller
	// target; homomorphisms can (images may coincide), so the size gate
	// only applies when injective.
	matchStart := time.Now()
	sizeOK := !s.injective || gp.NumNodes() <= gt.NumNodes()
	if !s.aborted && gp.NumNodes() > 0 && sizeOK {
		s.match()
	}
	res.Matches = s.matches
	res.States = s.states
	res.MatchTime = time.Since(matchStart)
	res.Aborted = s.aborted
	return res
}

// nextPatternNode picks the unmapped pattern node with dynamic ordering:
// prefer nodes adjacent to the mapped region (connectivity), break ties
// by larger degree then smaller id. Returns -1 when all nodes are mapped.
func (s *state) nextPatternNode() int32 {
	best, bestConn, bestDeg := int32(-1), -1, -1
	for u := int32(0); u < int32(s.gp.NumNodes()); u++ {
		if s.core[u] >= 0 {
			continue
		}
		conn := 0
		for _, w := range s.gp.OutNeighbors(u) {
			if s.core[w] >= 0 {
				conn = 1
				break
			}
		}
		if conn == 0 {
			for _, w := range s.gp.InNeighbors(u) {
				if s.core[w] >= 0 {
					conn = 1
					break
				}
			}
		}
		deg := s.gp.Degree(u)
		if conn > bestConn || (conn == bestConn && deg > bestDeg) {
			best, bestConn, bestDeg = u, conn, deg
		}
	}
	return best
}

// candidatePairs iterates candidate target nodes for pattern node u: the
// appropriately-directed neighbors of a mapped pattern neighbor's image
// when one exists, else the whole target vertex set.
func (s *state) candidates(u int32) []int32 {
	for _, w := range s.gp.OutNeighbors(u) {
		if tv := s.core[w]; tv >= 0 {
			// pattern edge (u, w): target edge (cand, tv) required, so
			// candidates are in-neighbors of tv.
			return s.gt.InNeighbors(tv)
		}
	}
	for _, w := range s.gp.InNeighbors(u) {
		if tv := s.core[w]; tv >= 0 {
			return s.gt.OutNeighbors(tv)
		}
	}
	return nil // caller falls back to all target nodes
}

// feasible validates mapping u→v under the configured semantics plus a
// conservative degree lookahead (when Semantics.DegreePruning() — under
// homomorphism several pattern edges may share one target edge, so the
// degree bound would wrongly prune). With domain preprocessing, the
// domain membership test subsumes the label and degree rules and adds
// the NLF and arc-consistency reductions.
func (s *state) feasible(u, v int32) bool {
	if s.injective && s.used[v] {
		return false
	}
	if s.doms != nil {
		if !s.doms.Of(u).Test(int(v)) {
			return false
		}
	} else {
		if s.gt.NodeLabel(v) != s.gp.NodeLabel(u) {
			return false
		}
		if s.degPrune &&
			(s.gt.OutDegree(v) < s.gp.OutDegree(u) || s.gt.InDegree(v) < s.gp.InDegree(u)) {
			return false
		}
	}
	// Every mapped pattern neighbor must be consistent now. Under the
	// bitset kernel the edge tests are row bit tests: exact when
	// per-label rows exist, direction-row prefilter (miss is definitive,
	// hit confirms the label) otherwise.
	labelRows := s.rows != nil && s.rows.HasLabelRows()
	adj := s.gp.OutNeighbors(u)
	labs := s.gp.OutEdgeLabels(u)
	for i, w := range adj {
		if tw := s.core[w]; tw >= 0 {
			if labelRows {
				r := s.rows.OutLab[labs[i]]
				if r == nil || !r[v].Test(int(tw)) {
					return false
				}
				continue
			}
			if s.rows != nil && !s.rows.Out[v].Test(int(tw)) {
				return false
			}
			if !s.gt.HasEdgeLabeled(v, tw, labs[i]) {
				return false
			}
		} else if w == u {
			if !s.gt.HasEdgeLabeled(v, v, labs[i]) {
				return false
			}
		}
	}
	adj = s.gp.InNeighbors(u)
	labs = s.gp.InEdgeLabels(u)
	for i, w := range adj {
		if tw := s.core[w]; tw >= 0 && w != u {
			if labelRows {
				r := s.rows.InLab[labs[i]]
				if r == nil || !r[v].Test(int(tw)) {
					return false
				}
				continue
			}
			if s.rows != nil && !s.rows.In[v].Test(int(tw)) {
				return false
			}
			if !s.gt.HasEdgeLabeled(tw, v, labs[i]) {
				return false
			}
		}
	}
	if s.induced {
		// Pattern non-edges (per direction, any label) must map onto
		// target non-edges, self-loops included.
		if rows := s.rows; rows != nil {
			outRow, inRow := rows.Out[v], rows.In[v]
			if !s.gp.HasEdge(u, u) && outRow.Test(int(v)) {
				return false
			}
			for w := int32(0); w < int32(s.gp.NumNodes()); w++ {
				tw := s.core[w]
				if tw < 0 || w == u {
					continue
				}
				if !s.gp.HasEdge(u, w) && outRow.Test(int(tw)) {
					return false
				}
				if !s.gp.HasEdge(w, u) && inRow.Test(int(tw)) {
					return false
				}
			}
			return true
		}
		if !s.gp.HasEdge(u, u) && s.gt.HasEdge(v, v) {
			return false
		}
		for w := int32(0); w < int32(s.gp.NumNodes()); w++ {
			tw := s.core[w]
			if tw < 0 || w == u {
				continue
			}
			if !s.gp.HasEdge(u, w) && s.gt.HasEdge(v, tw) {
				return false
			}
			if !s.gp.HasEdge(w, u) && s.gt.HasEdge(tw, v) {
				return false
			}
		}
	}
	return true
}

func (s *state) match() {
	if s.depth == s.gp.NumNodes() {
		s.emit()
		return
	}
	u := s.nextPatternNode()
	cands := s.candidates(u)
	if cands != nil {
		for i, v := range cands {
			if i > 0 && cands[i-1] == v {
				continue // parallel target edges: same candidate node
			}
			s.try(u, v)
			if s.stopped {
				return
			}
		}
		return
	}
	// No mapped pattern neighbor: candidates are u's precomputed domain
	// when available, the whole target vertex set otherwise.
	if s.doms != nil {
		s.doms.Of(u).ForEach(func(vi int) bool {
			s.try(u, int32(vi))
			return !s.stopped
		})
		return
	}
	for v := int32(0); v < int32(s.gt.NumNodes()); v++ {
		s.try(u, v)
		if s.stopped {
			return
		}
	}
}

func (s *state) try(u, v int32) {
	s.states++
	if s.states&cancelCheckMask == 0 && s.done != nil {
		select {
		case <-s.done:
			s.aborted = true
			s.stopped = true
			return
		default:
		}
	}
	if !s.feasible(u, v) {
		return
	}
	s.core[u] = v
	s.used[v] = true
	s.depth++
	s.match()
	s.depth--
	s.used[v] = false
	s.core[u] = -1
}

func (s *state) emit() {
	s.matches++
	if s.opts.Visit != nil && !s.opts.Visit(s.core) {
		// Visit stop = abort (truncated result); limit stop is not.
		s.stopped = true
		s.aborted = true
		return
	}
	if s.opts.Limit > 0 && s.matches >= s.opts.Limit {
		s.stopped = true
	}
}
