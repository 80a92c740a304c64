// Package ri implements the sequential RI family of subgraph enumeration
// algorithms from Bonnici et al. (BMC Bioinformatics 2013), including the
// RI-DS dense-graph variant and the two improvements contributed by
// Kimmig, Meyerhenke and Strash: domain-size tie-breaking in the static
// node ordering (RI-DS-SI, §4.2.1) and forward checking of singleton
// domains (RI-DS-SI-FC, §4.2.2).
//
// The search is a depth-first traversal of the state space tree (§2.2.1):
// pattern nodes are visited in a static order computed before the search;
// each state extends the partial mapping M by one (pattern node, target
// node) pair, validated by a set of increasingly expensive consistency
// rules. No expensive inference runs during the search — RI trades a
// larger search space for much faster state transitions.
//
// The package splits preprocessing (Prepare: ordering + domains + back
// edges) from the search (Run) so that the parallel engine in
// internal/parallel can reuse the exact same preprocessing and
// feasibility rules while scheduling states onto workers itself.
package ri

import (
	"context"
	"fmt"
	"sync"
	"time"

	"parsge/internal/bitset"
	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/order"
)

// Variant selects the algorithm configuration.
type Variant int

const (
	// VariantRI is plain RI: no domains, root candidates are all target
	// nodes. The paper uses it for sparse collections (PDBSv1).
	VariantRI Variant = iota
	// VariantRIDS precomputes candidate domains per pattern node and
	// hoists singleton domains to the front of the ordering (§4.1).
	VariantRIDS
	// VariantRIDSSI adds domain-size tie-breaking to the node ordering
	// (§4.2.1).
	VariantRIDSSI
	// VariantRIDSSIFC additionally forward-checks singleton domains
	// (§4.2.2). This is the paper's best variant on dense collections.
	VariantRIDSSIFC
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantRI:
		return "RI"
	case VariantRIDS:
		return "RI-DS"
	case VariantRIDSSI:
		return "RI-DS-SI"
	case VariantRIDSSIFC:
		return "RI-DS-SI-FC"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// UsesDomains reports whether the variant precomputes domains.
func (v Variant) UsesDomains() bool { return v != VariantRI }

// Options configures Prepare.
type Options struct {
	Variant Variant
	// Filters are the domain preprocessing knobs of the DS variants; the
	// plan they resolve to is recorded in Prepared.PreprocStats. Their
	// Kernel also selects the feasibility hot path of every variant:
	// bitset adjacency rows whenever the target fits
	// graph.DenseRowLimit under domain.KernelAuto, or one side forced
	// (the differential battery and the kernel ablation run both).
	domain.Filters
	// Domains, when non-nil, are the DS variants' domains already
	// computed by Filters.Compute for this pattern, target, index and
	// semantics (a cost estimate computes them before admission), and
	// DomainStats is their report. Prepare adopts them instead of
	// computing them again; forward checking refines them in place, so
	// the caller hands them over.
	Domains     *domain.Domains
	DomainStats *domain.ComputeStats
	// Semantics selects the matching semantics; the zero value
	// (graph.SemanticsUnset) normalizes to the paper's non-induced
	// subgraph isomorphism (§2.1). InducedIso adds per-direction
	// non-edge checks; Homomorphism drops injectivity (no used-set) and
	// degree-based pruning. An extension beyond the paper.
	Semantics graph.Semantics
	// OrderStrategy overrides the node-ordering ranking rule (ablation:
	// order.DegreeOnly vs the default GreatestConstraintFirst).
	OrderStrategy order.Strategy
	// TargetIndex, when non-nil and built for the same target graph,
	// supplies precomputed label→node buckets: domain computation scans
	// only matching buckets, and the plain-RI variant draws root (and
	// parentless-position) candidates from the root label's bucket
	// instead of the whole vertex set. Queries sharing one target build
	// it once (see the parsge.Target session API).
	TargetIndex *domain.Index
}

// RunOptions configures a single search over a Prepared instance.
type RunOptions struct {
	// Limit stops the search after this many matches (0 = enumerate all).
	Limit int64
	// Visit, when non-nil, is called for every match with the mapping
	// indexed by pattern node id (mapping[v_p] = v_t). The slice is
	// reused between calls; copy it to retain. Returning false stops
	// the search.
	Visit func(mapping []int32) bool
	// Ctx, when non-nil, cooperatively aborts the search soon after the
	// context is cancelled. The done channel is polled at the same low
	// frequency the previous atomic-flag design used (every
	// cancelCheckMask+1 states), so the hot loop stays flat; time limits
	// are a context.WithTimeout at the caller.
	Ctx context.Context
	// Arena, when non-nil and sized for the same target, supplies the
	// target-sized scratch (the used-set) from a reusable pool instead
	// of allocating per run.
	Arena *Arena
}

// Result reports one search run.
type Result struct {
	// Matches is the number of isomorphic subgraphs found.
	Matches int64
	// States is the number of search states visited (candidate
	// extensions checked) — the paper's "search space size". Every
	// distinct neighbor of the parent image is one state, whether the
	// searcher tests it or the row loop drops it outside the domain;
	// Counter states the rule.
	States int64
	// DepthStates breaks States down by ordering position: the search
	// profile. Highly irregular instances show most states concentrated
	// at a few depths — the load-balancing challenge of §3.
	DepthStates []int64
	// PreprocTime is the time spent computing domains and the ordering.
	PreprocTime time.Duration
	// MatchTime is the time spent enumerating.
	MatchTime time.Duration
	// Aborted reports whether Cancel stopped the search early.
	Aborted bool
	// Unsatisfiable reports that preprocessing proved zero matches
	// (empty or conflicting domains) without any search.
	Unsatisfiable bool
}

// backEdge records a pattern edge from the node at some position to a
// node at an earlier position; the search validates all of them for every
// candidate ("introducing additional constraints as early as possible").
// Under the bitset kernel each back edge is pre-bound to the adjacency
// rows that answer it (mode/rows), so the hot loop is a single word
// indexed bit test instead of a binary search over the CSR.
type backEdge struct {
	pos   int32       // earlier ordering position
	label graph.Label // required edge label
	out   bool        // true: pattern edge (current → earlier); false: (earlier → current)
	mode  uint8       // row binding, see the row* constants
	// rows is indexed by the candidate target node vt: under rowExact
	// the per-(direction, label) rows, under rowPrefilter the direction
	// rows. rows[vt].Test(w) asks "does the required arc exist?" (exact)
	// or "does any arc exist?" (prefilter).
	rows []*bitset.Set
}

const (
	// rowNone: no BitGraph rows (slice kernel or target above
	// graph.DenseRowLimit) — the CSR HasEdgeLabeled path.
	rowNone uint8 = iota
	// rowExact: per-label rows are built and the edge's label is in the
	// target alphabet; the bit test is the whole check.
	rowExact
	// rowAbsent: per-label rows are built but the edge's label never
	// occurs in the target — no candidate can satisfy this position.
	rowAbsent
	// rowPrefilter: only direction rows exist; a row miss is definitive,
	// a row hit still confirms the edge label against the CSR.
	rowPrefilter
)

// Prepared is the immutable product of preprocessing: everything the
// sequential and parallel searches share. It is safe for concurrent use
// once built.
type Prepared struct {
	Pattern *graph.Graph
	Target  *graph.Graph
	Variant Variant
	// Sem is the matching semantics every search over this instance
	// enumerates under; the parallel engine inherits it through the
	// shared Feasible rules, so it never needs its own semantics switch.
	Sem graph.Semantics

	Ord  *order.Ordering
	Doms *domain.Domains // nil for VariantRI
	// Idx is the optional shared target label index (nil without one).
	Idx *domain.Index
	// rows are the target's dense bitset adjacency rows under the bitset
	// kernel (nil under the slice kernel or above graph.DenseRowLimit);
	// the back-edge and induced checks read them instead of the CSR, and
	// the DS variants draw candidates from them (see ParentRow).
	rows *graph.BitGraph

	back [][]backEdge
	// selfLoops[i] lists the labels of pattern self-loops at Seq[i]; the
	// target node must carry an equally-labeled self-loop.
	selfLoops [][]graph.Label

	// Induced-mode tables (nil otherwise): noOut[i][j] marks earlier
	// position j with NO pattern edge Seq[i]→Seq[j] (the target must
	// then lack the corresponding edge too); noIn likewise for
	// Seq[j]→Seq[i]. hasSelfLoop[i] marks a pattern self-loop at Seq[i].
	induced bool
	// injective and degPrune cache Sem.Injective() / Sem.DegreePruning()
	// for the hot loop.
	injective   bool
	degPrune    bool
	noOut, noIn [][]bool
	hasSelfLoop []bool

	// Unsat is set when domain preprocessing proved zero matches.
	Unsat bool
	// PreprocTime is the wall time Prepare took.
	PreprocTime time.Duration
	// PreprocStats reports the filter plan the scheduler resolved and
	// the per-filter timings of domain preprocessing (nil for VariantRI,
	// which computes no domains).
	PreprocStats *domain.ComputeStats
}

// Prepare runs the preprocessing phase: domain computation (DS variants),
// forward checking (FC variant), static ordering, and back-edge tables.
func Prepare(gp, gt *graph.Graph, opts Options) (*Prepared, error) {
	start := time.Now()
	if !opts.Semantics.Valid() {
		return nil, fmt.Errorf("ri: unknown semantics %d", int32(opts.Semantics))
	}
	opts.Semantics = opts.Semantics.Norm()
	// Duplicate pattern edges add no constraint under any of the
	// supported semantics but would poison the degree-based pruning
	// bounds; see graph.Simplify.
	gp = gp.Simplify()
	p := &Prepared{
		Pattern:   gp,
		Target:    gt,
		Variant:   opts.Variant,
		Sem:       opts.Semantics,
		injective: opts.Semantics.Injective(),
		degPrune:  opts.Semantics.DegreePruning(),
	}
	if ix := opts.TargetIndex; ix != nil && ix.NumNodes() == gt.NumNodes() {
		p.Idx = ix
	}

	if opts.Variant.UsesDomains() {
		p.Doms, p.PreprocStats = opts.Domains, opts.DomainStats
		if p.Doms == nil {
			var dstats domain.ComputeStats
			p.Doms, dstats = opts.Filters.Compute(gp, gt, p.Idx, opts.Semantics)
			p.PreprocStats = &dstats
		}
		if p.Doms.AnyEmpty() {
			p.Unsat = true
		}
		// Forward checking propagates injectivity; it is skipped for
		// homomorphisms, where two pattern nodes sharing a pinned image
		// is perfectly legal.
		if !p.Unsat && opts.Variant == VariantRIDSSIFC && p.injective {
			if !p.Doms.ForwardCheck() {
				p.Unsat = true
			}
		}
	}

	if !p.Unsat && domain.ResolveKernel(opts.Kernel, gt.NumNodes()) == domain.KernelBitset {
		// Reuse the rows domain propagation built; otherwise build (or
		// fetch from the shared index's cache) the kernel layer here, so
		// plain RI and skip-AC ablations run the bitset hot path too.
		if p.PreprocStats != nil && p.PreprocStats.Rows != nil {
			p.rows = p.PreprocStats.Rows
		} else if p.Idx != nil {
			p.rows = p.Idx.Rows(gt)
		} else {
			p.rows = graph.NewBitGraph(gt)
		}
	}

	oopts := order.Options{Strategy: opts.OrderStrategy}
	if p.Doms != nil {
		oopts.DomainSizes = p.Doms.Sizes()
		oopts.DomainTieBreak = opts.Variant == VariantRIDSSI || opts.Variant == VariantRIDSSIFC
	}
	ord, err := order.Compute(gp, oopts)
	if err != nil {
		return nil, fmt.Errorf("ri: %w", err)
	}
	p.Ord = ord
	p.buildBackEdges()
	p.bindBackEdgeRows()
	if opts.Semantics.Induced() {
		p.buildInducedTables()
	}
	p.PreprocTime = time.Since(start)
	return p, nil
}

// buildInducedTables precomputes, for every ordering position, which
// earlier positions are pattern non-neighbors per direction.
func (p *Prepared) buildInducedTables() {
	p.induced = true
	n := len(p.Ord.Seq)
	p.noOut = make([][]bool, n)
	p.noIn = make([][]bool, n)
	p.hasSelfLoop = make([]bool, n)
	for i := 0; i < n; i++ {
		u := p.Ord.Seq[i]
		p.hasSelfLoop[i] = len(p.selfLoops[i]) > 0
		no, ni := make([]bool, i), make([]bool, i)
		for j := 0; j < i; j++ {
			w := p.Ord.Seq[j]
			no[j] = !p.Pattern.HasEdge(u, w)
			ni[j] = !p.Pattern.HasEdge(w, u)
		}
		p.noOut[i], p.noIn[i] = no, ni
	}
}

// buildBackEdges fills p.back: for ordering position i, all pattern edges
// between Seq[i] and earlier-ordered nodes, in both directions.
func (p *Prepared) buildBackEdges() {
	n := len(p.Ord.Seq)
	p.back = make([][]backEdge, n)
	p.selfLoops = make([][]graph.Label, n)
	for i := 0; i < n; i++ {
		u := p.Ord.Seq[i]
		var bes []backEdge
		adj := p.Pattern.OutNeighbors(u)
		labs := p.Pattern.OutEdgeLabels(u)
		for k, w := range adj {
			if w == u {
				p.selfLoops[i] = append(p.selfLoops[i], labs[k])
				continue
			}
			if wp := p.Ord.Pos[w]; wp < int32(i) {
				bes = append(bes, backEdge{pos: wp, label: labs[k], out: true})
			}
		}
		adj = p.Pattern.InNeighbors(u)
		labs = p.Pattern.InEdgeLabels(u)
		for k, w := range adj {
			if w == u {
				continue // already recorded from the out side
			}
			if wp := p.Ord.Pos[w]; wp < int32(i) {
				bes = append(bes, backEdge{pos: wp, label: labs[k], out: false})
			}
		}
		p.back[i] = bes
	}
}

// bindBackEdgeRows binds every back edge to the bitset rows that answer
// it (see the row* constants). A no-op under the slice kernel.
func (p *Prepared) bindBackEdgeRows() {
	if p.rows == nil {
		return
	}
	labelRows := p.rows.HasLabelRows()
	for i := range p.back {
		for k := range p.back[i] {
			be := &p.back[i][k]
			if labelRows {
				var rows []*bitset.Set
				if be.out {
					rows = p.rows.OutLab[be.label]
				} else {
					rows = p.rows.InLab[be.label]
				}
				if rows == nil {
					be.mode = rowAbsent
				} else {
					be.mode, be.rows = rowExact, rows
				}
				continue
			}
			if be.out {
				be.rows = p.rows.Out
			} else {
				be.rows = p.rows.In
			}
			be.mode = rowPrefilter
		}
	}
}

// NumPositions returns the depth of a complete mapping.
func (p *Prepared) NumPositions() int { return len(p.Ord.Seq) }

// Candidates returns the slice of target nodes to try at position pos
// given the target node the parent position is mapped to. It returns nil
// when pos has no parent; the caller must then use RootCandidates (RI) or
// the domain (DS variants). The slice aliases graph storage.
func (p *Prepared) Candidates(pos int, parentImage int32) []int32 {
	if p.Ord.Parent[pos] == order.NoParent {
		return nil
	}
	if p.Ord.ParentOut[pos] {
		return p.Target.OutNeighbors(parentImage)
	}
	return p.Target.InNeighbors(parentImage)
}

// rowMinNeighbors is the fewest arcs a parent image needs before
// ParentRow hands its row to the row loop. A row scan reads every word
// of the row twice (the count, then the AND) and pays a fixed cost per
// expansion, where the adjacency loop pays a call and a domain test per
// neighbor. On PDBSv1-shaped targets (mean degree about 3; RI-DS-SI-FC
// at scale 0.05 on 2 vCPUs, rows of at most 26 words) a row loop taken
// at every parent made the search about 40% slower than the adjacency
// loop; with this bound the two are within measurement noise there. On
// targets of up to 6,616 nodes a bound that grows with the row's word
// count measured no better than this constant.
const rowMinNeighbors = 8

// ParentRow returns the bitset row of parentImage's out- or
// in-neighbors (chosen by Ord.ParentOut), for ScanRow to intersect with
// pos's domain. parentImage is the image of pos's parent, and degree is
// len(Candidates(pos, parentImage)). It returns nil where the searches
// keep their one-at-a-time loop over that list: plain RI (no domains),
// the slice kernel (no rows), and a parent image with fewer than
// rowMinNeighbors arcs in that direction. Both loops offer the same
// candidates in the same order and count the same states, so the choice
// only moves the cost. It is small enough to inline, so a search that
// keeps the adjacency loop pays no call for asking.
func (p *Prepared) ParentRow(pos int, parentImage int32, degree int) *bitset.Set {
	if degree < rowMinNeighbors || p.Doms == nil || p.rows == nil {
		return nil
	}
	if p.Ord.ParentOut[pos] {
		return p.rows.Out[parentImage]
	}
	return p.rows.In[parentImage]
}

// ScanRow runs the row loop at position pos: it charges c with every
// member of row (see Counter), then offers try the candidates
// D(u) ∩ row in ascending order, the order the adjacency loop offers
// them in. poll runs when the charge crosses a poll boundary; if it
// returns true the scan stops before any candidate and gives the row
// back. If try returns false the scan stops after that candidate and
// gives back the row's members above it. ScanRow reports whether the
// scan ran to the end.
func (p *Prepared) ScanRow(c *Counter, pos int, row *bitset.Set, poll func() bool, try func(vt int32) bool) bool {
	n := int64(row.Count())
	if c.Add(pos, n) && poll() {
		c.Add(pos, -n)
		return false
	}
	done := true
	p.Doms.Of(p.Ord.Seq[pos]).ForEachAnd(row, func(i int) bool {
		if try(int32(i)) {
			return true
		}
		c.Add(pos, -int64(row.CountAfter(i)))
		done = false
		return false
	})
	return done
}

// InDomain reports whether vt is a candidate of position pos's domain
// under a DS variant. The DS adjacency loops ask it before Feasible,
// which assumes the answer.
func (p *Prepared) InDomain(pos int, vt int32) bool {
	return p.Doms.Of(p.Ord.Seq[pos]).Test(int(vt))
}

// ParentPos returns the ordering position of pos's parent, or
// order.NoParent.
func (p *Prepared) ParentPos(pos int) int32 { return p.Ord.Parent[pos] }

// Feasible applies RI's consistency rules for mapping the pattern node at
// ordering position pos onto target node vt, given the current partial
// mapping (indexed by position) and the used-set of target nodes. The
// rules run cheapest-first (§3.1): injectivity (skipped for
// homomorphisms), then label equality and degree bounds (dropped under
// homomorphism where they are unsound), then edge existence and
// edge-label compatibility towards every already-mapped pattern
// neighbor, and finally the induced non-edge checks when Sem requires
// them. For the DS variants the domain subsumes label and degree, and vt
// must already be a member of it (InDomain): the row loop offers
// D(u) ∩ row, the root and parentless loops iterate D(u) itself, and
// the adjacency loop tests membership before it calls Feasible.
func (p *Prepared) Feasible(pos int, vt int32, mapped []int32, used []bool) bool {
	if p.injective && used[vt] {
		return false
	}
	u := p.Ord.Seq[pos]
	if p.Doms == nil {
		if p.Target.NodeLabel(vt) != p.Pattern.NodeLabel(u) {
			return false
		}
		if p.degPrune &&
			(p.Target.OutDegree(vt) < p.Pattern.OutDegree(u) ||
				p.Target.InDegree(vt) < p.Pattern.InDegree(u)) {
			return false
		}
	}
	for _, l := range p.selfLoops[pos] {
		if !p.Target.HasEdgeLabeled(vt, vt, l) {
			return false
		}
	}
	for i := range p.back[pos] {
		be := &p.back[pos][i]
		w := mapped[be.pos]
		switch be.mode {
		case rowExact:
			if !be.rows[vt].Test(int(w)) {
				return false
			}
			continue
		case rowAbsent:
			return false
		case rowPrefilter:
			if !be.rows[vt].Test(int(w)) {
				return false
			}
			// Some arc exists; fall through to confirm its label.
		}
		if be.out {
			if !p.Target.HasEdgeLabeled(vt, w, be.label) {
				return false
			}
		} else {
			if !p.Target.HasEdgeLabeled(w, vt, be.label) {
				return false
			}
		}
	}
	if p.induced {
		if rows := p.rows; rows != nil {
			outRow, inRow := rows.Out[vt], rows.In[vt]
			if !p.hasSelfLoop[pos] && outRow.Test(int(vt)) {
				return false
			}
			noOut, noIn := p.noOut[pos], p.noIn[pos]
			for j := 0; j < pos; j++ {
				w := int(mapped[j])
				if noOut[j] && outRow.Test(w) {
					return false
				}
				if noIn[j] && inRow.Test(w) {
					return false
				}
			}
			return true
		}
		if !p.hasSelfLoop[pos] && p.Target.HasEdge(vt, vt) {
			return false
		}
		noOut, noIn := p.noOut[pos], p.noIn[pos]
		for j := 0; j < pos; j++ {
			w := mapped[j]
			if noOut[j] && p.Target.HasEdge(vt, w) {
				return false
			}
			if noIn[j] && p.Target.HasEdge(w, vt) {
				return false
			}
		}
	}
	return true
}

// RootCandidates calls yield for every candidate target node of the first
// ordering position: the domain for DS variants ("RI-DS uses domains as
// candidates for the root node of the search space, unlike RI, which
// considers V(G_t)", §4.1), all target nodes otherwise — narrowed to the
// root label's bucket when a target index is attached. yield returning
// false stops the iteration.
func (p *Prepared) RootCandidates(yield func(vt int32) bool) {
	if p.NumPositions() == 0 {
		return
	}
	if p.Doms != nil {
		root := p.Ord.Seq[0]
		p.Doms.Of(root).ForEach(func(i int) bool { return yield(int32(i)) })
		return
	}
	p.FreeCandidates(0, yield)
}

// FreeCandidates iterates the candidate targets of an ordering position
// that has neither a mapped parent nor a domain: the label bucket of the
// shared index when available (sound because Feasible re-checks label
// equality anyway, so skipping other labels cannot lose matches), else
// every target node.
func (p *Prepared) FreeCandidates(pos int, yield func(vt int32) bool) {
	if p.Idx != nil {
		for _, vt := range p.Idx.Nodes(p.Pattern.NodeLabel(p.Ord.Seq[pos])) {
			if !yield(vt) {
				return
			}
		}
		return
	}
	for vt := int32(0); vt < int32(p.Target.NumNodes()); vt++ {
		if !yield(vt) {
			return
		}
	}
}

// Arena pools target-sized scratch buffers shared by all queries against
// one target graph, so a session serving many queries (or a batch fanned
// over many workers) does not allocate a fresh used-set per run. An Arena
// is safe for concurrent use; buffers are returned to the pool all-false.
type Arena struct {
	nt   int
	pool sync.Pool
}

// NewArena returns an arena for targets with targetNodes nodes.
func NewArena(targetNodes int) *Arena {
	a := &Arena{nt: targetNodes}
	a.pool.New = func() any { return make([]bool, targetNodes) }
	return a
}

// NumNodes returns the target size the arena was built for.
func (a *Arena) NumNodes() int { return a.nt }

// AcquireUsed returns an all-false used-set of length NumNodes.
func (a *Arena) AcquireUsed() []bool { return a.pool.Get().([]bool) }

// ReleaseUsed returns a used-set to the pool. The caller must have
// cleared every bit it set (the searches unwind theirs on backtrack).
func (a *Arena) ReleaseUsed(u []bool) { a.pool.Put(u) }

// cancelCheckMask controls how often the hot loop polls the context's
// done channel: every (mask+1) states. Power of two minus one.
const cancelCheckMask = 0x3FF

// Counter tallies a search's states, in total and by ordering position;
// the sequential searcher and every parallel worker keep one. The rule:
//   - A candidate offered one at a time (plain RI, the slice kernel, a
//     parentless position, a parent image ParentRow leaves to the
//     adjacency loop) is one state, counted before it is checked.
//   - The row loop (ScanRow) counts every member of the parent image's
//     row, in the domain or not, and checks only D(u) ∩ row. Each
//     distinct neighbor of the parent image is thus one state on either
//     loop and either kernel.
//   - A stop inside a row scan (Limit, a Visit that returns false, or
//     cancellation) gives back the row's members above the candidate it
//     stopped at, so a stopped sequential run counts what the
//     one-at-a-time loop would have.
//
// The search polls its context whenever States crosses a multiple of
// cancelCheckMask+1.
type Counter struct {
	States int64
	Depth  []int64 // States by ordering position
}

// Add charges n states to position pos and reports whether States
// crossed a poll boundary.
func (c *Counter) Add(pos int, n int64) bool {
	before := c.States
	c.States += n
	c.Depth[pos] += n
	return before|cancelCheckMask != c.States|cancelCheckMask
}

// searcher is the sequential DFS state.
type searcher struct {
	p       *Prepared
	mapped  []int32 // position → target node
	used    []bool  // target node → used
	nodeMap []int32 // pattern node id → target node (for Visit)

	Counter
	matches int64

	limit   int64
	visit   func([]int32) bool
	done    <-chan struct{}
	aborted bool
	stopped bool
}

// Run executes the sequential search over the prepared instance.
func (p *Prepared) Run(opts RunOptions) (res Result) {
	res = Result{PreprocTime: p.PreprocTime, Unsatisfiable: p.Unsat}
	start := time.Now()
	defer func() { res.MatchTime = time.Since(start) }()

	if p.Unsat || p.NumPositions() == 0 {
		return res
	}
	var used []bool
	if opts.Arena != nil && opts.Arena.nt == p.Target.NumNodes() {
		used = opts.Arena.AcquireUsed()
		// The DFS unwinds every bit it sets even when stopped early, so
		// the buffer goes back all-false.
		defer opts.Arena.ReleaseUsed(used)
	} else {
		used = make([]bool, p.Target.NumNodes())
	}
	s := &searcher{
		p:       p,
		mapped:  make([]int32, p.NumPositions()),
		used:    used,
		nodeMap: make([]int32, p.Pattern.NumNodes()),
		Counter: Counter{Depth: make([]int64, p.NumPositions())},
		limit:   opts.Limit,
		visit:   opts.Visit,
	}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
		if opts.Ctx.Err() != nil {
			res.Aborted = true
			return res
		}
	}
	for i := range s.mapped {
		s.mapped[i] = -1
	}

	p.RootCandidates(func(vt int32) bool {
		s.tryExtend(0, vt, false)
		return !s.stopped
	})

	res.Matches = s.matches
	res.States = s.States
	res.DepthStates = s.Depth
	res.Aborted = s.aborted
	return res
}

// tryExtend checks candidate vt at position pos and recurses on
// success. Unless counted is set (the row loop charges its candidates
// up front; see Counter), vt is first counted as one state.
func (s *searcher) tryExtend(pos int, vt int32, counted bool) {
	if !counted && s.Add(pos, 1) && s.poll() {
		return
	}
	if !s.p.Feasible(pos, vt, s.mapped, s.used) {
		return
	}
	s.mapped[pos] = vt
	s.used[vt] = true
	s.descend(pos + 1)
	s.used[vt] = false
	s.mapped[pos] = -1
}

// poll reports whether the context was cancelled, stopping the search
// if so.
func (s *searcher) poll() bool {
	if s.done == nil {
		return false
	}
	select {
	case <-s.done:
		s.aborted = true
		s.stopped = true
		return true
	default:
		return false
	}
}

// descend visits the subtree below a freshly-extended mapping of length pos.
func (s *searcher) descend(pos int) {
	if pos == s.p.NumPositions() {
		s.emit()
		return
	}
	parent := s.p.Ord.Parent[pos]
	if parent != order.NoParent {
		v := s.mapped[parent]
		adj := s.p.Candidates(pos, v)
		if row := s.p.ParentRow(pos, v, len(adj)); row != nil {
			s.p.ScanRow(&s.Counter, pos, row, s.poll, func(vt int32) bool {
				s.tryExtend(pos, vt, true)
				return !s.stopped
			})
			return
		}
		if s.p.Doms != nil {
			// A neighbor outside D(u) is a state that fails at once.
			for i, vt := range adj {
				if i > 0 && adj[i-1] == vt {
					continue
				}
				if !s.p.InDomain(pos, vt) {
					if s.Add(pos, 1) && s.poll() {
						return
					}
					continue
				}
				s.tryExtend(pos, vt, false)
				if s.stopped {
					return
				}
			}
			return
		}
		for i, vt := range adj {
			if i > 0 && adj[i-1] == vt {
				continue // parallel target edges: same candidate node
			}
			s.tryExtend(pos, vt, false)
			if s.stopped {
				return
			}
		}
		return
	}
	// Parentless non-root position (disconnected pattern or hoisted
	// singleton): candidates come from the domain, the label bucket, or
	// all target nodes.
	u := s.p.Ord.Seq[pos]
	if s.p.Doms != nil {
		s.p.Doms.Of(u).ForEach(func(i int) bool {
			s.tryExtend(pos, int32(i), false)
			return !s.stopped
		})
		return
	}
	s.p.FreeCandidates(pos, func(vt int32) bool {
		s.tryExtend(pos, vt, false)
		return !s.stopped
	})
}

// emit records a complete match and invokes the callback.
func (s *searcher) emit() {
	s.matches++
	if s.visit != nil {
		for i, vt := range s.mapped {
			s.nodeMap[s.p.Ord.Seq[i]] = vt
		}
		if !s.visit(s.nodeMap) {
			// A Visit stop ends the run before exhaustion: report it as
			// an abort (Matches is a lower bound), exactly like the
			// parallel engine's visitStop. A Limit stop below is not an
			// abort — the caller got everything it asked for.
			s.stopped = true
			s.aborted = true
			return
		}
	}
	if s.limit > 0 && s.matches >= s.limit {
		s.stopped = true
	}
}

// Enumerate is the convenience entry point: Prepare followed by Run.
func Enumerate(gp, gt *graph.Graph, opts Options, run RunOptions) (Result, error) {
	p, err := Prepare(gp, gt, opts)
	if err != nil {
		return Result{}, err
	}
	return p.Run(run), nil
}
