// Package domain implements RI-DS domain assignment (Kimmig et al. §4.1)
// and the paper's forward-checking improvement (§4.2.2), extended into a
// semantics-aware pruning subsystem.
//
// A domain D(v_p) is the set of target nodes that pattern node v_p may
// map to. Domains start from label equivalence and degree bounds, are
// tightened by the neighborhood-label-frequency filter (NLF: the
// candidate's labeled neighborhood must dominate the pattern node's),
// pruned by arc consistency over the pattern edges — and, under induced
// semantics, over the pattern *non*-edges too — and, in the RI-DS-SI-FC
// variant, further reduced by forward checking: every pattern node with
// a singleton domain will definitely be assigned its unique target node,
// so that target is removed from every other domain, cascading over
// newly created singletons.
//
// Every filter adapts to the matching semantics (see Options.Semantics):
// degree bounds and multiset NLF domination require injectivity, so
// under graph.Homomorphism the NLF check weakens to set containment (the
// image must offer every labeled-neighbor kind the pattern node needs,
// counted as a set) — the sound homomorphism label bound — and degree
// bounds are dropped. The non-edge propagation applies only under
// graph.InducedIso, the one semantics that constrains non-edges.
//
// Domains are represented as bitmasks over the target vertex set, exactly
// as in the original RI implementation ("In RI, domains are implemented
// as bitmasks, which we use to quickly remove singleton domains' contents
// from all other domains").
//
// Which filters run — and how deep arc consistency iterates — is chosen
// per query by the adaptive schedule (see Schedule, AutoTune in
// schedule.go): preprocessing cost is only paid where target statistics
// say it amortizes.
package domain

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"parsge/internal/bitset"
	"parsge/internal/graph"
)

// Domains holds one candidate set per pattern node over target node ids.
type Domains struct {
	sets []*bitset.Set
	nt   int
}

// Index is precomputed target-side state reusable across queries against
// the same target graph: nodes bucketed by label (in ascending node-id
// order), the target's neighborhood-label-frequency data for the NLF
// filter, and the target statistics the adaptive schedule consults.
// Building it once per target and sharing it between Compute calls turns
// the initial domain filter from a scan over all target nodes into a
// scan over the label's bucket, with the NLF data ready instead of
// recomputed per query. The NLF data takes one of two forms: threshold
// rows where they fit (see nlfrows.go), else per-node signatures and
// key masks. An Index is immutable after NewIndex and safe for
// concurrent use.
type Index struct {
	byLabel map[graph.Label][]int32
	nt      int
	// stats are cached for AutoTune (density, label entropy, skew).
	stats TargetStats
	// nlf holds the NLF threshold rows, every kernel's unary filter;
	// nil past graph.DenseRowLimit, the key-table bound or the row
	// budget. An index with rows has nil out, in, outMask and inMask.
	nlf *nlfRows
	// out[v] / in[v] are node v's NLF signatures per direction.
	out, in []nlfSig
	// outMask[v] / inMask[v] fold the keys of out[v] / in[v] into one
	// word each (see keyMask): the unary filter rejects a candidate
	// lacking a pattern key bit before loading its signature. Kept in
	// dense arrays beside the signatures, not inside them, so a mask
	// test touches 8 bytes.
	outMask, inMask []uint64
	// loops holds the nodes that carry a self-loop, so the unary
	// self-loop filters test a bit instead of searching the CSR row.
	loops *bitset.Set
	// sumDeg / sumSqDeg are the exact integer degree moments behind
	// stats.MeanDegree/DegreeSkew, kept so incremental update
	// maintenance (update.go) can adjust them for touched vertices only
	// and still reproduce a rebuild bit-for-bit.
	sumDeg, sumSqDeg int64
	// gen is the index generation: 0 at construction, old.gen+1 for
	// every ApplyUpdates derivative. It tags the lazily-built BitGraph
	// row cache below so a seeded cache is only trusted for the
	// generation it was built for.
	gen uint64
	// rowCache holds the lazily-built bitset adjacency rows (see Rows).
	// The pointer itself is the only mutable state of an Index; racing
	// builders store identical content, so last-store-wins is safe.
	rowCache atomic.Pointer[bitRows]
}

// bitRows is the row cache of an Index, tagged with the index
// generation it was built for so incremental seeding can never leak
// stale rows across an update.
//
//sgelint:epochkey
type bitRows struct {
	rows  *graph.BitGraph // nil when the target exceeds graph.DenseRowLimit
	epoch uint64          // Index generation the rows were built from
	// churn counts the vertices updates have touched since the rows
	// were built, repeats included (see seedRows).
	churn int
}

// Rows returns the target's dense bitset adjacency rows, building them
// on first use and caching them on the Index (the BitGraph kernel
// layer). g must be the graph the Index was built for. Returns nil when
// the target exceeds graph.DenseRowLimit nodes — the sorted-slice
// fallback rule; callers must treat nil as "use the CSR paths".
func (ix *Index) Rows(g *graph.Graph) *graph.BitGraph { return ix.rowEntry(g).rows }

// rowEntry returns the current generation's row cache, building it on
// first use.
func (ix *Index) rowEntry(g *graph.Graph) *bitRows {
	if c := ix.cachedRows(); c != nil {
		return c
	}
	c := &bitRows{rows: graph.NewBitGraph(g), epoch: ix.gen}
	ix.rowCache.Store(c)
	return c
}

// cachedRows returns the row cache if it was built for this generation,
// without building anything.
func (ix *Index) cachedRows() *bitRows {
	if c := ix.rowCache.Load(); c != nil && c.epoch == ix.gen {
		return c
	}
	return nil
}

// HasRows reports whether the BitGraph row cache is built for the
// current generation (tests and IndexEqual use it; laziness means an
// unbuilt cache is not a difference).
func (ix *Index) HasRows() bool { return ix.cachedRows() != nil }

// NewIndex buckets the target's nodes by label and precomputes its NLF
// data: the threshold rows when they fit, else the per-node signatures
// and key masks.
func NewIndex(gt *graph.Graph) *Index {
	nt := gt.NumNodes()
	st, sumDeg, sumSqDeg := statsWithSums(gt)
	ix := &Index{
		byLabel:  make(map[graph.Label][]int32),
		nt:       nt,
		stats:    st,
		sumDeg:   sumDeg,
		sumSqDeg: sumSqDeg,
	}
	ix.loops = bitset.New(nt)
	for vt := int32(0); vt < int32(nt); vt++ {
		l := gt.NodeLabel(vt)
		ix.byLabel[l] = append(ix.byLabel[l], vt)
		if gt.HasEdge(vt, vt) {
			ix.loops.Set(int(vt))
		}
	}
	if ix.nlf = newNLFRows(gt, ix.byLabel); ix.nlf == nil {
		ix.fillSigs(gt, nil, nil)
	}
	return ix
}

// fillSigs gives ix, which has no threshold rows, the signatures and
// key masks of g: those of from's tables, copied, with the nodes in
// touched recomputed, when from has them; else every node's, computed.
func (ix *Index) fillSigs(g *graph.Graph, from *Index, touched []int32) {
	var buf []uint64
	if from != nil && from.out != nil {
		ix.out = slices.Clone(from.out)
		ix.in = slices.Clone(from.in)
		ix.outMask = slices.Clone(from.outMask)
		ix.inMask = slices.Clone(from.inMask)
		for _, vt := range touched {
			buf = ix.fillNLF(g, vt, buf)
		}
		return
	}
	ix.out = make([]nlfSig, ix.nt)
	ix.in = make([]nlfSig, ix.nt)
	ix.outMask = make([]uint64, ix.nt)
	ix.inMask = make([]uint64, ix.nt)
	for vt := int32(0); vt < int32(ix.nt); vt++ {
		buf = ix.fillNLF(g, vt, buf)
	}
}

// fillNLF (re)computes node vt's NLF signatures and key masks
// from g, returning the grown key buffer for reuse.
func (ix *Index) fillNLF(g *graph.Graph, vt int32, buf []uint64) []uint64 {
	buf = appendNLFKeys(buf[:0], g, g.OutNeighbors(vt), g.OutEdgeLabels(vt))
	ix.out[vt] = buildNLFSig(buf)
	ix.outMask[vt] = keyMask(ix.out[vt].keys)
	buf = appendNLFKeys(buf[:0], g, g.InNeighbors(vt), g.InEdgeLabels(vt))
	ix.in[vt] = buildNLFSig(buf)
	ix.inMask[vt] = keyMask(ix.in[vt].keys)
	return buf
}

// Stats returns the target statistics cached at index construction.
func (ix *Index) Stats() TargetStats { return ix.stats }

// Nodes returns the target nodes carrying label l, ascending by id. The
// slice is shared — callers must not modify it.
func (ix *Index) Nodes(l graph.Label) []int32 { return ix.byLabel[l] }

// NumNodes returns the node count of the indexed target, used to verify
// an Index belongs to the graph a query runs against.
func (ix *Index) NumNodes() int { return ix.nt }

// nlfKey packs a (neighbor node label, edge label) pair into one
// comparable word. Labels are int32, so the two halves never collide.
func nlfKey(nodeLab, edgeLab graph.Label) uint64 {
	return uint64(uint32(nodeLab))<<32 | uint64(uint32(edgeLab))
}

// keyMask folds a set of nlfKeys into a 64-bit presence mask, key
// (node label n, edge label e) setting bit (n + 7·e) mod 64 — distinct
// bits for up to 64 node labels on unlabeled edges, or 7 node labels by
// 9 edge labels. Any fold is sound as a prefilter: a signature that
// dominates the pattern's holds every pattern key, so its mask holds
// every pattern bit; a missing bit rejects outright, a present one
// leaves the decision to the signature merge.
func keyMask(keys []uint64) uint64 {
	var m uint64
	for _, k := range keys {
		m |= 1 << ((uint32(k>>32) + 7*uint32(k)) % 64)
	}
	return m
}

// nlfSig is one node's neighborhood-label-frequency signature in one
// direction: sorted (neighbor label, edge label) keys with the number of
// distinct neighbors per key. Self-loops are included as ordinary
// incidences on both the pattern and the target side, which keeps the
// domination test sound for every semantics (a pattern self-loop can
// only map onto a target self-loop; under homomorphism a pattern edge
// may map onto a target self-loop, whose key is then present).
type nlfSig struct {
	keys   []uint64
	counts []int32
}

// appendNLFKeys appends one key per distinct (neighbor, edge label)
// incidence of an adjacency row. Rows are sorted by neighbor id, so
// parallel edges are contiguous; equal-label parallels are deduplicated
// (they impose a single constraint), different-label parallels each
// contribute their own key.
func appendNLFKeys(dst []uint64, g *graph.Graph, adj []int32, labs []graph.Label) []uint64 {
	for i := 0; i < len(adj); {
		j := i
		for j < len(adj) && adj[j] == adj[i] {
			j++
		}
		nl := g.NodeLabel(adj[i])
		for k := i; k < j; k++ {
			dup := false
			for m := i; m < k; m++ {
				if labs[m] == labs[k] {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, nlfKey(nl, labs[k]))
			}
		}
		i = j
	}
	return dst
}

// buildNLFSig sorts the key buffer and run-length encodes it into a
// signature. The buffer may be reused afterwards; the signature owns
// fresh storage of exactly its size.
func buildNLFSig(keys []uint64) nlfSig {
	slices.Sort(keys)
	runs := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			runs++
		}
	}
	sig, _, _ := appendNLFSig(make([]uint64, 0, runs), make([]int32, 0, runs), keys)
	return sig
}

// appendNLFSig run-length encodes sorted keys into the spare capacity
// of kdst and cdst, so a pattern's signatures can share two slabs; it
// returns the signature and the grown slabs.
func appendNLFSig(kdst []uint64, cdst []int32, keys []uint64) (nlfSig, []uint64, []int32) {
	if len(keys) == 0 {
		return nlfSig{}, kdst, cdst
	}
	k0 := len(kdst)
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		kdst = append(kdst, keys[i])
		cdst = append(cdst, int32(j-i))
		i = j
	}
	k1 := len(kdst)
	return nlfSig{keys: kdst[k0:k1:k1], counts: cdst[k0:k1:k1]}, kdst, cdst
}

// dominates reports whether target signature t covers pattern signature
// p: every pattern key must be present with at least the pattern's
// count (multiset domination — sound under the injective semantics,
// where distinct pattern neighbors need distinct images) or, under
// homomorphism, with at least one distinct neighbor (set containment —
// distinct pattern neighbors may collapse onto one image, but every
// required labeled-edge kind must exist).
func (t nlfSig) dominates(p nlfSig, hom bool) bool {
	ti := 0
	for pi, k := range p.keys {
		for ti < len(t.keys) && t.keys[ti] < k {
			ti++
		}
		if ti == len(t.keys) || t.keys[ti] != k {
			return false
		}
		if !hom && t.counts[ti] < p.counts[pi] {
			return false
		}
	}
	return true
}

// Options configures domain computation.
type Options struct {
	// ACPasses bounds the number of arc-consistency sweeps: 0 means
	// iterate to fixpoint, n > 0 caps at n sweeps. A single sweep is
	// what the original RI-DS description performs; the fixpoint is
	// never weaker. The ablation bench compares the two.
	ACPasses int
	// ACAdaptive marks ACPasses as a revisable scheduler prediction
	// rather than a caller demand: after the capped sweeps the pipeline
	// measures the remaining domains and escalates to fixpoint when
	// their mean size is still at least acEscalateMeanDomain candidates
	// per pattern node (the second-stage AutoTune rule). Set by AutoTune
	// alongside its one-pass cap; ignored when ACPasses is 0.
	ACAdaptive bool
	// SkipAC disables arc consistency entirely (the induced non-edge
	// propagation included), leaving only the unary filters. Used by
	// ablation benchmarks.
	SkipAC bool
	// SkipNLF disables the neighborhood-label-frequency filter, leaving
	// the label/degree/self-loop unary filters. Used by ablation
	// benchmarks and the differential tests.
	SkipNLF bool
	// SkipInducedAC disables the induced non-edge propagation while
	// keeping the classic edge-support arc consistency. Only meaningful
	// under graph.InducedIso. Used by ablations and differential tests.
	SkipInducedAC bool
	// Index, when non-nil and built for the same target, restricts the
	// initial label/degree filter to each label's bucket instead of
	// scanning every target node, and supplies the target's precomputed
	// NLF data: threshold rows, or signatures where they do not fit.
	// Results are identical either way.
	Index *Index
	// Kernel selects the candidate-intersection implementation of the
	// propagation hot paths (classic AC support scans and the induced
	// non-edge pass): KernelBitset rewires them onto dense BitGraph
	// rows (cached on Index when one is supplied), KernelSlice keeps
	// the CSR scans, KernelAuto resolves by target size. Results are
	// identical for every kernel.
	Kernel Kernel
	// Semantics adjusts the filters to the matching semantics: under
	// graph.Homomorphism the degree bounds are dropped (several pattern
	// edges may collapse onto one target edge, so "image degree ≥
	// pattern degree" would wrongly prune valid images) and NLF
	// domination weakens to set containment; under graph.InducedIso the
	// unary self-loop filter and the arc-consistency sweep additionally
	// enforce non-edge constraints. Arc consistency over pattern edges
	// is sound for every semantics — it only requires each pattern edge
	// to have some compatible target edge. The zero value normalizes to
	// the paper's non-induced subgraph isomorphism.
	Semantics graph.Semantics
}

// Filters are the preprocessing knobs every engine exposes: which
// filters run, how deep arc consistency iterates, the kernel, and the
// schedule that may adapt all of them. Engines take them as-is and turn
// them into domains through Compute.
type Filters struct {
	// ACPasses caps the arc-consistency sweeps (0 = fixpoint); see
	// Options.ACPasses.
	ACPasses int
	// SkipAC, SkipNLF and SkipInducedAC disable the corresponding
	// filters, for ablations and the differential batteries; see Options.
	SkipAC, SkipNLF, SkipInducedAC bool
	// Schedule selects the filter plan: ScheduleAuto (the zero value)
	// adapts the knobs to the target's statistics and the pattern's
	// shape (see AutoTune), ScheduleFixed runs them as given. Explicit
	// ACPasses and Skip* knobs are respected under both.
	Schedule Schedule
	// Kernel selects the candidate-intersection implementation of
	// propagation and of the engines' hot paths: KernelAuto (the zero
	// value) picks bitset rows for targets up to graph.DenseRowLimit,
	// KernelBitset and KernelSlice force one side.
	Kernel Kernel
}

// Compute resolves f into the domain options for pattern gp against
// target gt under sem — adapted by AutoTune under ScheduleAuto — and
// computes the domains. It is the one place preprocessing knobs become
// domain options: every engine and the cost estimate go through it, so
// an estimate prices exactly the plan its run executes.
func (f Filters) Compute(gp, gt *graph.Graph, ix *Index, sem graph.Semantics) (*Domains, ComputeStats) {
	opts := Options{
		ACPasses:      f.ACPasses,
		SkipAC:        f.SkipAC,
		SkipNLF:       f.SkipNLF,
		SkipInducedAC: f.SkipInducedAC,
		Index:         ix,
		Kernel:        f.Kernel,
		Semantics:     sem,
	}
	if f.Schedule == ScheduleAuto {
		opts = AutoTune(opts, gp, gt)
	}
	return ComputeWithStats(gp, gt, opts)
}

// Compute builds the domains of pattern gp against target gt.
func Compute(gp, gt *graph.Graph, opts Options) *Domains {
	d, _ := ComputeWithStats(gp, gt, opts)
	return d
}

// ComputeWithStats is Compute plus a report of what the filter pipeline
// did: the resolved Plan, per-filter wall times, and staged domain
// sizes. Callers that schedule adaptively (see AutoTune) surface the
// report so the chosen plan is measurable rather than implicit.
func ComputeWithStats(gp, gt *graph.Graph, opts Options) (*Domains, ComputeStats) {
	sem := opts.Semantics.Norm()
	np, nt := gp.NumNodes(), gt.NumNodes()
	d := &Domains{sets: make([]*bitset.Set, np), nt: nt}

	ix := opts.Index
	if ix != nil && ix.nt != nt {
		ix = nil // index built for a different target: ignore
	}
	hom := !sem.Injective()
	induced := sem.Induced()
	stats := ComputeStats{Plan: Plan{
		NLF:        !opts.SkipNLF,
		AC:         !opts.SkipAC,
		ACPasses:   opts.ACPasses,
		ACAdaptive: !opts.SkipAC && opts.ACAdaptive && opts.ACPasses > 0,
		InducedAC:  induced && !opts.SkipAC && !opts.SkipInducedAC,
	}}
	// Resolve the kernel and materialize the BitGraph rows the
	// propagation passes (and, via stats.Rows, the engines) run on.
	// With an Index the rows are cached across queries; without one they
	// are built here only when arc consistency will actually use them.
	var rows *graph.BitGraph
	if ResolveKernel(opts.Kernel, nt) == KernelBitset {
		if ix != nil {
			rows = ix.Rows(gt)
		} else if !opts.SkipAC {
			rows = graph.NewBitGraph(gt)
		}
	}
	stats.Rows = rows
	// With the index's threshold rows the NLF filter runs a set at a
	// time, under every kernel; without them (no index, an index past
	// the row bounds, SkipNLF) it merges signatures.
	var nlf *nlfRows
	if ix != nil && !opts.SkipNLF {
		nlf = ix.nlf
	}
	rowsUnary := nlf != nil
	stats.unaryRows = rowsUnary
	unaryStart := time.Now()

	// Pattern-side unary state, computed once per pattern node: NLF
	// signatures and self-loop label sets.
	var psigOut, psigIn []nlfSig
	if !opts.SkipNLF {
		var buf []uint64
		// Every arc gives at most one key at each end.
		psigs := make([]nlfSig, 2*np)
		psigOut, psigIn = psigs[:np:np], psigs[np:]
		kslab := make([]uint64, 0, 2*gp.NumEdges())
		cslab := make([]int32, 0, 2*gp.NumEdges())
		for vp := int32(0); vp < int32(np); vp++ {
			buf = appendNLFKeys(buf[:0], gp, gp.OutNeighbors(vp), gp.OutEdgeLabels(vp))
			slices.Sort(buf)
			psigOut[vp], kslab, cslab = appendNLFSig(kslab, cslab, buf)
			buf = appendNLFKeys(buf[:0], gp, gp.InNeighbors(vp), gp.InEdgeLabels(vp))
			slices.Sort(buf)
			psigIn[vp], kslab, cslab = appendNLFSig(kslab, cslab, buf)
		}
	}
	selfLoops := patternSelfLoops(gp)

	// Without an Index, target signatures are built on the fly and
	// memoized per node: same-label pattern nodes share a candidate
	// bucket, so each candidate would otherwise be re-encoded once per
	// pattern node.
	var scratch []uint64
	var tout, tin []nlfSig
	var tbuilt []bool
	builtSigs := func(vt int32) (out, in nlfSig) {
		if tbuilt == nil {
			tout = make([]nlfSig, nt)
			tin = make([]nlfSig, nt)
			tbuilt = make([]bool, nt)
		}
		if !tbuilt[vt] {
			scratch = appendNLFKeys(scratch[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
			tout[vt] = buildNLFSig(scratch)
			scratch = appendNLFKeys(scratch[:0], gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
			tin[vt] = buildNLFSig(scratch)
			tbuilt[vt] = true
		}
		return tout[vt], tin[vt]
	}

	// hasLoop answers the self-loop filters from the Index's self-loop
	// set, or from the CSR row without one.
	hasLoop := func(vt int32) bool {
		if ix != nil {
			return ix.loops.Test(int(vt))
		}
		return gt.HasEdge(vt, vt)
	}
	// With an Index, the candidates' key masks prefilter the signature
	// merge (see keyMask).
	merge := !opts.SkipNLF && !rowsUnary
	masked := merge && ix != nil

	// Initial unary filter per pattern node: equivalent labels,
	// sufficient in/out degrees ("all nodes with in- and outdegree at
	// least that of v_p's, and with labels that match v_p's", §4.1, only
	// under the injective semantics), label-compatible self-loops (under
	// induced semantics also the absence of extra target self-loops),
	// and NLF domination. With a label Index only the matching bucket is
	// scanned; the label test is then implicit. With threshold rows the
	// bucket is first ANDed with the rows of the pattern node's keys, and
	// only the survivors are tested one at a time.
	sets := bitset.NewBatch(np, nt)
	for vp := int32(0); vp < int32(np); vp++ {
		s := &sets[vp]
		d.sets[vp] = s
		lab := gp.NodeLabel(vp)
		din, dout := gp.InDegree(vp), gp.OutDegree(vp)
		if !sem.DegreePruning() {
			din, dout = 0, 0
		}
		var maskOut, maskIn uint64
		if masked {
			maskOut, maskIn = keyMask(psigOut[vp].keys), keyMask(psigIn[vp].keys)
		}
		admit := func(vt int32) bool {
			if gt.InDegree(vt) < din || gt.OutDegree(vt) < dout {
				return false
			}
			if masked && (maskOut&^ix.outMask[vt] != 0 || maskIn&^ix.inMask[vt] != 0) {
				return false
			}
			if len(selfLoops[vp]) > 0 {
				// The set rejects loop-free candidates before the
				// per-label row search.
				if !hasLoop(vt) {
					return false
				}
				for _, l := range selfLoops[vp] {
					if !gt.HasEdgeLabeled(vt, vt, l) {
						return false
					}
				}
			} else if induced && hasLoop(vt) {
				return false
			}
			if merge {
				if ix != nil {
					if !ix.out[vt].dominates(psigOut[vp], hom) || !ix.in[vt].dominates(psigIn[vp], hom) {
						return false
					}
				} else if len(psigOut[vp].keys) > 0 || len(psigIn[vp].keys) > 0 {
					tout, tin := builtSigs(vt)
					if !tout.dominates(psigOut[vp], hom) || !tin.dominates(psigIn[vp], hom) {
						return false
					}
				}
			}
			return true
		}
		switch {
		case rowsUnary:
			for _, vt := range ix.Nodes(lab) {
				s.Set(int(vt))
			}
			nlf.out.filter(nlf, s, psigOut[vp], hom)
			nlf.in.filter(nlf, s, psigIn[vp], hom)
			s.ForEach(func(vti int) bool {
				if !admit(int32(vti)) {
					s.Clear(vti)
				}
				return true
			})
		case ix != nil:
			for _, vt := range ix.Nodes(lab) {
				if admit(vt) {
					s.Set(int(vt))
				}
			}
		default:
			for vt := int32(0); vt < int32(nt); vt++ {
				if gt.NodeLabel(vt) == lab && admit(vt) {
					s.Set(int(vt))
				}
			}
		}
	}

	stats.UnaryTime = time.Since(unaryStart)
	stats.AfterUnary = d.TotalSize()

	if !opts.SkipAC {
		d.arcConsistency(gp, gt, rows, opts.ACPasses, stats.Plan.ACAdaptive, induced && !opts.SkipInducedAC, &stats)
	}
	stats.Final = d.TotalSize()
	if lp, empty := d.LogProduct(); !empty {
		stats.LogDomainProduct = lp
	}
	return d, stats
}

// patternSelfLoops collects, per pattern node, the distinct labels of
// its self-loops.
func patternSelfLoops(gp *graph.Graph) [][]graph.Label {
	out := make([][]graph.Label, gp.NumNodes())
	for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
		adj := gp.OutNeighbors(vp)
		labs := gp.OutEdgeLabels(vp)
		for i, w := range adj {
			if w == vp && !slices.Contains(out[vp], labs[i]) {
				out[vp] = append(out[vp], labs[i])
			}
		}
	}
	return out
}

// arcConsistency removes v_t from D(v_p) whenever some pattern edge at
// v_p has no compatible counterpart at v_t (§4.1): for every edge
// (v_p, w_p) there must be an edge-label-compatible w_t ∈ D(w_p) with
// (v_t, w_t) ∈ E(G_t), and symmetrically for incoming edges. When
// induced is set, each sweep additionally propagates the pattern
// *non*-edge constraints (see inducedPass); both prunings share the
// pass loop so they reach a joint fixpoint. st accumulates the wall
// time of the classic sweeps and the induced passes separately.
//
// A sweep revises v_p only over the arcs whose D(w_p) shrank since v_p's
// last revision (see sweepState), so it removes exactly what a full
// sweep removes, pass by pass, and a sweep that proves the fixpoint
// re-checks nothing.
//
// With adaptive set, maxPasses is a revisable prediction: after the
// first sweep the remaining mean domain size is measured, and when it is
// still at least acEscalateMeanDomain candidates per pattern node the
// cap is lifted and the sweeps continue to fixpoint (the second-stage
// AutoTune rule). The outcome is written back to st.Plan.ACPasses so the
// reported plan shows the decision actually taken.
func (d *Domains) arcConsistency(gp, gt *graph.Graph, rows *graph.BitGraph, maxPasses int, adaptive, induced bool, st *ComputeStats) {
	np := gp.NumNodes()
	start := time.Now()
	defer func() {
		st.ACTime = time.Since(start) - st.InducedACTime
	}()
	// Under the bitset kernel with per-label rows, the support test
	// "some labeled neighbor of v_t lies in D(w_p)" is one word-parallel
	// intersection against the (direction, label) row. The row slices
	// are hoisted per arc so the candidate loop does no map lookups; a
	// nil slice means the label has no target edge at all.
	labelRows := rows != nil && rows.HasLabelRows()
	sw := newSweepState(d)
	var arcs []acArc
	for pass := 0; maxPasses == 0 || pass < maxPasses; pass++ {
		changed := false
		for vp := int32(0); vp < int32(np); vp++ {
			if sw.sizes[vp] == 0 {
				continue
			}
			since := sw.acAt[vp]
			arcs = arcs[:0]
			for _, out := range [2]bool{true, false} {
				nbrs, labs := gp.InNeighbors(vp), gp.InEdgeLabels(vp)
				if out {
					nbrs, labs = gp.OutNeighbors(vp), gp.OutEdgeLabels(vp)
				}
				for i, wp := range nbrs {
					// Self-loops are a unary constraint; an arc whose
					// D(w_p) has not shrunk still supports every v_t.
					if wp == vp || sw.shrunk[wp] <= since {
						continue
					}
					a := acArc{dom: d.sets[wp], lab: labs[i], out: out}
					if labelRows {
						a.rows = rows.InLab[a.lab]
						if out {
							a.rows = rows.OutLab[a.lab]
						}
					}
					arcs = append(arcs, a)
				}
			}
			if len(arcs) == 0 {
				continue
			}
			sw.begin(sw.acAt, vp)
			d.sets[vp].ForEach(func(vti int) bool {
				vt := int32(vti)
				for i := range arcs {
					a := &arcs[i]
					var ok bool
					if labelRows {
						ok = a.rows != nil && a.dom.Intersects(a.rows[vt])
					} else {
						ok = a.supportedCSR(gt, rows, vt)
					}
					if !ok {
						sw.drop = append(sw.drop, vti)
						return true
					}
				}
				return true
			})
			if sw.remove(d, vp) {
				changed = true
			}
		}
		if induced {
			ipStart := time.Now()
			ipChanged := d.inducedPass(gp, gt, rows, sw, st)
			st.InducedACTime += time.Since(ipStart)
			if ipChanged {
				changed = true
			}
		}
		if pass == 0 {
			st.AfterPass1 = d.TotalSize()
			if adaptive && changed && np > 0 &&
				float64(st.AfterPass1) >= acEscalateMeanDomain*float64(np) {
				// The one-pass prediction was wrong for this query:
				// the sweep is still pruning and the domains it left
				// behind are large, so further sweeps have real work.
				// Lift the cap and iterate to fixpoint.
				maxPasses = 0
				st.Plan.ACPasses = 0
			}
		}
		if !changed {
			return
		}
	}
}

// acArc is one pattern arc at the node a classic revision checks: the
// neighbor's domain, the edge label, the direction, and — under the
// label-row kernel — the (direction, label) rows.
type acArc struct {
	dom  *bitset.Set
	lab  graph.Label
	out  bool
	rows []*bitset.Set
}

// supportedCSR reports whether target node vt has a neighbor in a.dom
// over an a.lab-labeled edge in a's direction, scanning vt's CSR row —
// behind the direction row's word-parallel prefilter when rows exist.
func (a *acArc) supportedCSR(gt *graph.Graph, rows *graph.BitGraph, vt int32) bool {
	adj, labs := gt.InNeighbors(vt), gt.InEdgeLabels(vt)
	if a.out {
		adj, labs = gt.OutNeighbors(vt), gt.OutEdgeLabels(vt)
	}
	if rows != nil {
		r := rows.In[vt]
		if a.out {
			r = rows.Out[vt]
		}
		if !r.Intersects(a.dom) {
			return false
		}
	}
	return hasSupport(adj, labs, a.lab, a.dom)
}

// sweepState is the change bookkeeping the arc-consistency and induced
// sweeps share. A clock ticks once per revision of a pattern node;
// shrunk[v] is the tick of the revision that last removed candidates
// from D(v) (1, the unary filter's, until then), and acAt[v] / indAt[v]
// the tick at which v's last classic / induced revision began (0 =
// never). A revision of v checks an arc or pair (v, w) only when
// shrunk[w] is later than v's previous revision: every candidate still
// in D(v) had its support in D(w) then, and a D(w) that has not shrunk
// still holds it. The skipped checks could remove nothing, so the
// domains after every pass — and with them AfterPass1, the adaptive
// escalation and the fixpoint — are those of full sweeps.
type sweepState struct {
	clock       int
	shrunk      []int
	acAt, indAt []int
	// sizes[v] is |D(v)|, kept current by remove.
	sizes []int
	// drop collects the candidates a revision removes; one buffer
	// serves every revision.
	drop []int
	// blk caches the induced pass's blocked sets under the bitset
	// kernel.
	blk blockedSets
}

// newSweepState starts the bookkeeping for domains fresh from the unary
// filter.
func newSweepState(d *Domains) *sweepState {
	np := len(d.sets)
	buf := make([]int, 4*np)
	sw := &sweepState{
		clock:  1,
		shrunk: buf[:np:np],
		acAt:   buf[np : 2*np : 2*np],
		indAt:  buf[2*np : 3*np : 3*np],
		sizes:  buf[3*np:],
	}
	for v, s := range d.sets {
		sw.shrunk[v] = 1
		sw.sizes[v] = s.Count()
	}
	return sw
}

// begin starts a revision of v, stamping it in at (acAt or indAt).
func (sw *sweepState) begin(at []int, v int32) {
	sw.clock++
	at[v] = sw.clock
}

// remove clears the drop buffer's candidates from D(v), stamps the
// shrink with the current revision's tick, and reports whether anything
// was removed.
func (sw *sweepState) remove(d *Domains, v int32) bool {
	if len(sw.drop) == 0 {
		return false
	}
	for _, vti := range sw.drop {
		d.sets[v].Clear(vti)
	}
	sw.sizes[v] -= len(sw.drop)
	sw.shrunk[v] = sw.clock
	sw.drop = sw.drop[:0]
	return true
}

// inducedPass propagates the non-edge constraints of induced matching:
// for an ordered pattern pair (v_p, w_p) with a missing edge in either
// direction, a valid induced embedding maps w_p to some w_t ∈ D(w_p)
// distinct from v_t (induced matching is injective) whose corresponding
// target edges are missing too. A candidate v_t with no such support in
// D(w_p) is removed. Pairs whose D(w_p) has not shrunk since v_p's last
// induced revision are skipped (see sweepState). The pattern non-edges
// come from one merge walk over v_p's sorted adjacency rows per
// revision. It returns whether any domain changed.
//
// Under the bitset kernel a pair costs one AND-NOT: the candidates
// without support are exactly w_p's blocked set (see blockedSets),
// computed once per D(w_p) and direction mode and shared by every v_p.
// The slice kernel tests one candidate at a time, in O(1) in the common
// case by pigeonhole: at most OutDegree(v_t) target nodes have an edge
// from v_t, at most InDegree(v_t) an edge to v_t, plus v_t itself — a
// domain larger than that necessarily contains a support, so only small
// domains are scanned.
func (d *Domains) inducedPass(gp, gt *graph.Graph, rows *graph.BitGraph, sw *sweepState, st *ComputeStats) bool {
	np := int32(gp.NumNodes())
	changed := false
	for vp := int32(0); vp < np; vp++ {
		if sw.sizes[vp] == 0 {
			continue
		}
		since := sw.indAt[vp]
		sw.begin(sw.indAt, vp)
		dom := d.sets[vp]
		outP, inP := gp.OutNeighbors(vp), gp.InNeighbors(vp)
		oi, ii := 0, 0
		for wp := int32(0); wp < np; wp++ {
			for oi < len(outP) && outP[oi] < wp {
				oi++
			}
			for ii < len(inP) && inP[ii] < wp {
				ii++
			}
			needOut := oi == len(outP) || outP[oi] != wp // pattern non-edge vp→wp
			needIn := ii == len(inP) || inP[ii] != wp    // pattern non-edge wp→vp
			// The self pair is the unary self-loop filter.
			if wp == vp || (!needOut && !needIn) || sw.shrunk[wp] <= since {
				continue
			}
			if rows != nil {
				if blk := sw.blocked(d, rows, wp, needOut, needIn); blk != nil {
					if n := dom.AndNotCount(blk); n > 0 {
						sw.sizes[vp] -= n
						sw.shrunk[vp] = sw.clock
						st.blockedPrunes++
						changed = true
					}
				}
				continue
			}
			domW, sizeW := d.sets[wp], sw.sizes[wp]
			dom.ForEach(func(vti int) bool {
				vt := int32(vti)
				bound := 1 // v_t itself is never a valid image of w_p
				if needOut {
					bound += gt.OutDegree(vt)
				}
				if needIn {
					bound += gt.InDegree(vt)
				}
				if sizeW > bound {
					return true // pigeonhole: a non-adjacent support exists
				}
				supported := false
				domW.ForEach(func(wti int) bool {
					wt := int32(wti)
					if wt == vt {
						return true
					}
					if needOut && gt.HasEdge(vt, wt) {
						return true
					}
					if needIn && gt.HasEdge(wt, vt) {
						return true
					}
					supported = true
					return false
				})
				if !supported {
					sw.drop = append(sw.drop, vti)
				}
				return true
			})
			if sw.remove(d, vp) {
				changed = true
			}
		}
	}
	return changed
}

// blockedSets caches, per pattern node w and direction mode, the
// induced pass's blocked set of D(w): the targets v_t for which every
// member of D(w) is v_t itself or adjacent to v_t in the directions the
// non-edge needs free,
//
//	⋂_{w_t ∈ D(w)} ({w_t} ∪ In(w_t) ∪ Out(w_t)),
//
// with In(w_t) when the non-edge runs v→w (an arc v_t→w_t puts v_t in
// In(w_t)) and Out(w_t) when it runs w→v. They are exactly the v_t with
// no support in D(w), so one AND-NOT revises a pair. An entry is
// recomputed only when D(w) has shrunk since it was computed (its
// stamp in sweepState.shrunk). Buffers come in batches of the Compute
// call's own: a set is computed into a free buffer, which an entry
// keeps only when the set is non-empty, and reuses from then on.
type blockedSets struct {
	byMode [3][]blockedEntry // [mode−1][w], made on the mode's first use
	spare  []bitset.Set
	free   *bitset.Set
}

// blockedEntry is one cached blocked set, as of D(w)'s shrink stamp at
// (0: never computed); buf holds it when live.
type blockedEntry struct {
	buf  *bitset.Set
	at   int
	live bool
}

// blocked returns w's blocked set for the non-edge directions, or nil
// when it is empty.
func (sw *sweepState) blocked(d *Domains, rows *graph.BitGraph, w int32, needOut, needIn bool) *bitset.Set {
	b := &sw.blk
	mode := 0
	if needOut {
		mode |= 1
	}
	if needIn {
		mode |= 2
	}
	if b.byMode[mode-1] == nil {
		b.byMode[mode-1] = make([]blockedEntry, len(d.sets))
	}
	e := &b.byMode[mode-1][w]
	if e.at != sw.shrunk[w] {
		s := e.buf
		if s == nil {
			if b.free == nil {
				if len(b.spare) == 0 {
					b.spare = bitset.NewBatch(max(len(d.sets)/4, 4), d.nt)
				}
				b.free, b.spare = &b.spare[0], b.spare[1:]
			}
			s = b.free
		}
		// Intersect member by member while that keeps shrinking the
		// set; once a member removes nothing (a hub adjacent to most of
		// D(w) keeps the set from emptying), test the few survivors
		// against all of D(w) instead of ANDing every member left.
		s.SetAll()
		kept, left := d.nt, sw.sizes[w]
		d.sets[w].ForEach(func(wt int) bool {
			var in, out *bitset.Set
			if needOut {
				in = rows.In[wt]
			}
			if needIn {
				out = rows.Out[wt]
			}
			was := kept
			kept = s.AndUnion(in, out, wt)
			left--
			return kept > 0 && kept < was
		})
		if kept > 0 && left > 0 {
			s.ForEach(func(x int) bool {
				var out, in *bitset.Set
				if needOut {
					out = rows.Out[x]
				}
				if needIn {
					in = rows.In[x]
				}
				if d.sets[w].ExistsOutside(out, in, x) {
					s.Clear(x)
					kept--
				}
				return true
			})
		}
		live := kept > 0
		if live && e.buf == nil {
			e.buf, b.free = s, nil
		}
		e.at, e.live = sw.shrunk[w], live
	}
	if !e.live {
		return nil
	}
	return e.buf
}

// hasSupport reports whether some neighbor w_t (with matching edge label)
// lies in the domain of the pattern neighbor.
func hasSupport(adj []int32, labs []graph.Label, want graph.Label, dom *bitset.Set) bool {
	for i, wt := range adj {
		if labs[i] == want && dom.Test(int(wt)) {
			return true
		}
	}
	return false
}

// Of returns the domain of pattern node vp. The set is shared, not a
// copy; the search engines only read it.
func (d *Domains) Of(vp int32) *bitset.Set { return d.sets[vp] }

// NumPattern returns the number of pattern nodes covered.
func (d *Domains) NumPattern() int { return len(d.sets) }

// Sizes returns the cardinality of each domain, used by the SI ordering
// tie-break and by the singleton hoisting rule.
func (d *Domains) Sizes() []int {
	out := make([]int, len(d.sets))
	for i, s := range d.sets {
		out[i] = s.Count()
	}
	return out
}

// AnyEmpty reports whether some domain is empty, in which case no
// isomorphic subgraph exists and the search can be skipped entirely.
func (d *Domains) AnyEmpty() bool {
	for _, s := range d.sets {
		if s.Empty() {
			return true
		}
	}
	return false
}

// ForwardCheck applies the paper's §4.2.2 improvement in place: for each
// pattern node with a singleton domain, its unique target node is removed
// from every other domain (the injectivity constraint is propagated ahead
// of the search). Newly created singletons are processed transitively.
// It propagates injectivity, so callers must not invoke it for
// non-injective semantics (graph.Homomorphism) — ri.Prepare gates on
// Semantics.Injective().
//
// It returns false when the instance is proven unsatisfiable: a domain
// ran empty, or two pattern nodes are both pinned to the same target.
func (d *Domains) ForwardCheck() bool {
	np := len(d.sets)
	processed := make([]bool, np)
	queue := make([]int, 0, np)
	for vp, s := range d.sets {
		if s.Count() == 1 {
			queue = append(queue, vp)
		}
	}
	for len(queue) > 0 {
		vp := queue[0]
		queue = queue[1:]
		if processed[vp] {
			continue
		}
		processed[vp] = true
		s := d.sets[vp]
		vt := s.First()
		if vt < 0 {
			return false // ran empty while queued
		}
		for wp, o := range d.sets {
			if wp == vp || !o.Test(vt) {
				continue
			}
			if processed[wp] && o.Count() == 1 {
				// Two pattern nodes pinned to the same target.
				return false
			}
			o.Clear(vt)
			switch o.Count() {
			case 0:
				return false
			case 1:
				queue = append(queue, wp)
			}
		}
	}
	return true
}

// Clone deep-copies the domains; the parallel engine gives each worker a
// read-only shared copy, but tests use Clone to compare variants.
func (d *Domains) Clone() *Domains {
	c := &Domains{sets: make([]*bitset.Set, len(d.sets)), nt: d.nt}
	for i, s := range d.sets {
		c.sets[i] = s.Clone()
	}
	return c
}

// TotalSize returns the sum of domain cardinalities — a scalar measure of
// search-space tightness used by tests and the experiment harness.
func (d *Domains) TotalSize() int {
	t := 0
	for _, s := range d.sets {
		t += s.Count()
	}
	return t
}

// LogProduct returns log2 of the product of domain cardinalities — the
// staged upper bound on the number of candidate assignments the search
// could enumerate — summed in log space so huge products don't overflow.
// Empty domains are skipped in the sum; the second return reports
// whether any domain was empty (the instance is then unsatisfiable and
// the bound is moot).
func (d *Domains) LogProduct() (float64, bool) {
	var sum float64
	empty := false
	for _, s := range d.sets {
		c := s.Count()
		if c == 0 {
			empty = true
			continue
		}
		sum += math.Log2(float64(c))
	}
	return sum, empty
}

// String summarizes domain sizes for debugging.
func (d *Domains) String() string {
	return fmt.Sprintf("Domains(pattern=%d, sizes=%v)", len(d.sets), d.Sizes())
}
