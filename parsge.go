// Package parsge is a shared-memory parallel subgraph enumeration
// library: a from-scratch Go reproduction of
//
//	R. Kimmig, H. Meyerhenke, D. Strash,
//	"Shared Memory Parallel Subgraph Enumeration" (IPDPS workshops 2017,
//	arXiv:1705.09358),
//
// which parallelizes the state-of-the-art RI / RI-DS subgraph
// enumeration algorithms of Bonnici et al. with work stealing over
// private deques, and improves RI-DS with domain-size tie-breaking and
// forward checking.
//
// # Quick start
//
//	pattern := parsge.NewBuilder(3, 3)
//	pattern.AddNode(0)               // labels are small integers
//	...
//	res, err := parsge.Enumerate(gp, gt, parsge.Options{
//		Algorithm: parsge.RIDSSIFC,
//		Workers:   8,
//	})
//	fmt.Println(res.Matches)
//
// # Sessions
//
// The one-shot functions above rebuild all target-side state per call.
// A service answering many pattern queries against the same target
// should build the session object once and query it instead — the
// label index, density statistics and scratch arenas are then computed
// a single time and shared by all queries, and every query takes a
// context.Context for cancellation:
//
//	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
//	for _, gp := range patterns {
//		res, err := tgt.Enumerate(ctx, gp, parsge.Options{Workers: 8})
//		...
//	}
//
// Options.Visit receives every embedding as it is found, so a caller
// that wants the mappings collects them there (copying each: the slice
// is reused).
//
// A *Target is safe for concurrent use.
//
// Graphs are directed and labeled; model an undirected edge by adding
// both arcs (Builder.AddEdgeBoth). The default matching semantics is
// non-induced subgraph isomorphism: every pattern edge must exist in the
// target with a compatible label, target edges not in the pattern are
// ignored, node labels must be equal, and the mapping is injective.
// Options.Semantics switches every engine to induced matching
// (InducedIso: pattern non-edges must map to target non-edges) or to
// graph homomorphisms (Homomorphism: the mapping need not be injective).
//
// The heavy lifting lives in the internal packages (see DESIGN.md for
// the full inventory); this package is the stable outward-facing API.
package parsge

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/graphio"
	"parsge/internal/ri"
)

// Semantics selects what counts as a match; see the package comment and
// the constants below. The zero value is SemanticsUnset — "no semantics
// chosen" — which resolves to the session's DefaultSemantics and then to
// the library default, SubgraphIso (the semantics of the source paper).
// Because unset and SubgraphIso are distinct values, an explicit
// Semantics: SubgraphIso always wins over a Target's DefaultSemantics.
type Semantics = graph.Semantics

const (
	// SemanticsUnset is the zero value: the query does not choose a
	// semantics, deferring to TargetOptions.DefaultSemantics and then
	// to the library default (SubgraphIso).
	SemanticsUnset = graph.SemanticsUnset
	// SubgraphIso is non-induced subgraph isomorphism (the library
	// default): injective, edge- and label-preserving; extra target
	// edges between images are ignored.
	SubgraphIso = graph.SubgraphIso
	// InducedIso is induced subgraph isomorphism: additionally, every
	// ordered pattern non-edge (self-loops included) must map to a
	// target non-edge, regardless of edge labels.
	InducedIso = graph.InducedIso
	// Homomorphism drops injectivity: distinct pattern nodes may map to
	// the same target node. Patterns larger than the target can match;
	// counts can be much larger than under the injective semantics.
	Homomorphism = graph.Homomorphism
)

// Graph is an immutable directed labeled graph. Build one with Builder.
type Graph = graph.Graph

// Builder accumulates nodes and edges for a Graph.
type Builder = graph.Builder

// Label is a node or edge label; labels compare by equality only.
type Label = graph.Label

// NoLabel is the label of unlabeled nodes and edges.
const NoLabel = graph.NoLabel

// NewBuilder returns a Builder pre-sized for n nodes and m edges.
func NewBuilder(n, m int) *Builder { return graph.NewBuilder(n, m) }

// Algorithm selects the search algorithm.
type Algorithm int

const (
	// RI is the plain RI algorithm — fastest on sparse targets
	// (the paper's PDBSv1).
	RI Algorithm = iota
	// RIDS is RI with precomputed candidate domains — for medium to
	// large dense targets (PPIS32, GRAEMLIN32).
	RIDS
	// RIDSSI is RI-DS with domain-size tie-breaking in the node
	// ordering (the paper's first improvement).
	RIDSSI
	// RIDSSIFC is RI-DS-SI plus forward checking of singleton domains
	// (the paper's best dense-graph variant).
	RIDSSIFC
	// VF2 is the classic Cordella et al. baseline with dynamic variable
	// ordering. Sequential only; provided for comparison.
	VF2 Algorithm = 100
	// LAD is a constraint-propagation engine in the style of Solnon's
	// LAD: per-assignment domain filtering (AllDifferent plus arc
	// consistency along incident pattern edges). It represents the
	// "spend time to shrink space" end of the design spectrum the paper
	// surveys (§2.2.1). Sequential only.
	LAD Algorithm = 101
	// Auto picks between RI and RI-DS-SI-FC from the target's density,
	// following the paper's guidance (RI on sparse collections like
	// PDBSv1, the DS variants on dense ones like PPIS32/GRAEMLIN32).
	Auto Algorithm = -1
)

// AutoWorkers, used as Options.Workers, sizes the worker pool
// automatically: min(GOMAXPROCS, number of consistent root candidates).
// This implements the direction the paper's conclusion sketches
// ("future work should address a dynamic strategy for determining the
// optimal level of parallelism"): tiny searches stay sequential, wide
// ones use every core.
const AutoWorkers = -1

// autoDensityThreshold is the mean total degree above which Auto prefers
// the domain-based variant. The paper's sparse collection (PDBSv1) has
// mean degree ≈ 3 (undirected; 6 total), the dense ones 27+.
const autoDensityThreshold = 12.0

// chooseAlgorithm resolves Auto against the target's density.
func chooseAlgorithm(a Algorithm, target *Graph) Algorithm {
	if a != Auto {
		return a
	}
	if target.NumNodes() == 0 {
		return RI
	}
	meanDeg := 2 * float64(target.NumEdges()) / float64(target.NumNodes())
	if meanDeg < autoDensityThreshold {
		return RI
	}
	return RIDSSIFC
}

// valid reports whether a names an engine (Auto resolves before this
// check).
func (a Algorithm) valid() bool {
	return (a >= RI && a <= RIDSSIFC) || a == VF2 || a == LAD
}

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case RI, RIDS, RIDSSI, RIDSSIFC:
		return ri.Variant(a).String()
	case VF2:
		return "VF2"
	case LAD:
		return "LAD"
	case Auto:
		return "Auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Enumerate.
type Options struct {
	// Algorithm picks the engine; the zero value is RI.
	Algorithm Algorithm
	// Workers sets the parallel worker count; 0 or 1 runs the
	// sequential engine. VF2 ignores it (always sequential).
	Workers int
	// TaskGroupSize is the work-stealing coalescing granularity: the
	// candidates one steal hands over, and the size of the root groups
	// the initial distribution deals (1–16, default 4 — the paper's
	// setting).
	TaskGroupSize int
	// Limit stops after at least this many matches (0 = enumerate all).
	Limit int64
	// Timeout aborts the run after the given wall time (0 = none); the
	// paper's experiments use 180 s. It is implemented as a
	// context.WithTimeout layered over the ctx the session methods
	// take, so both compose: whichever fires first aborts the query.
	Timeout time.Duration
	// Semantics selects the matching semantics: SubgraphIso (the
	// paper's non-induced subgraph isomorphism), InducedIso, or
	// Homomorphism. The zero value, SemanticsUnset, falls back to the
	// session's TargetOptions.DefaultSemantics and then to SubgraphIso;
	// an explicit choice — SubgraphIso included — always overrides the
	// session default. Every engine — the RI family, the parallel
	// engine, VF2 and LAD — supports all three, so cross-validation
	// stays available under every semantics. An extension beyond the
	// paper.
	Semantics Semantics
	// Visit is called for every match with the mapping indexed by
	// pattern node id (mapping[patternNode] = targetNode). The slice is
	// reused — copy it to retain. With Workers > 1 it is called
	// concurrently and must be safe for concurrent use. Returning false
	// stops the enumeration.
	Visit func(mapping []int32) bool

	// filters pins the preprocessing filter plan — schedule, AC depth,
	// filter opt-outs, kernel — for this package's differential and
	// metamorphic batteries. The zero value (every filter, adaptive
	// schedule, automatic kernel) is what every caller outside the
	// package runs.
	filters domain.Filters
}

// Result reports one enumeration.
type Result struct {
	// Matches is the number of embeddings found under the query's
	// Semantics (non-induced subgraph isomorphisms by default).
	Matches int64
	// States is the number of search states explored — the paper's
	// "search space size". In the RI family each distinct neighbor of
	// the parent image is one state, whether the engine tests it or the
	// bitset kernel's row loop drops it outside the domain, so States
	// does not depend on the kernel.
	States int64
	// PreprocTime covers domain computation and node ordering: the one
	// preprocessing the query paid. A run that adopted a cost
	// estimate's domains (Target.EnumerateEstimated) includes the
	// estimate's time computing them.
	PreprocTime time.Duration
	// MatchTime covers the search itself.
	MatchTime time.Duration
	// TimedOut reports that Timeout (or a Visit stop) ended the run
	// before the search space was exhausted; Matches is a lower bound.
	TimedOut bool
	// Unsatisfiable reports that preprocessing proved zero matches.
	Unsatisfiable bool
	// Steals counts stolen tasks (parallel runs only).
	Steals int64
	// PerWorkerStates breaks States down by worker (parallel runs only).
	PerWorkerStates []int64
	// DepthStates breaks States down by search depth (RI family only):
	// the search profile, useful for diagnosing irregular instances.
	DepthStates []int64
	// Plan reports the preprocessing filter plan the scheduler resolved
	// for this query, with per-filter timings and staged domain sizes.
	// It is nil when the engine ran without domain preprocessing (plain
	// RI).
	Plan *PlanInfo
	// Epoch is the target mutation epoch the query executed against
	// (see Target.ApplyUpdates): 0 until the first effective update
	// batch, incremented once per batch. Caches keyed on query results
	// compare it against Target.Epoch() to invalidate entries made
	// stale by updates.
	Epoch uint64
}

// PlanInfo describes the resolved preprocessing filter plan of one
// query: which filters fired (the adaptive schedule picks them from the
// target's statistics), where preprocessing time went, and how far each
// stage shrank the candidate domains.
type PlanInfo struct {
	// NLF reports the neighborhood-label-frequency filter ran.
	NLF bool
	// AC reports classic arc consistency ran, capped at ACPasses sweeps
	// (0 = fixpoint); InducedAC that the induced non-edge propagation
	// ran (InducedIso only). ACAdaptive reports the scheduler's one-pass
	// cap was a revisable prediction measured after the first sweep:
	// ACPasses then records the outcome (1 = the probe stopped, 0 = the
	// domains stayed large and the sweeps escalated to fixpoint).
	AC         bool
	ACPasses   int
	ACAdaptive bool
	InducedAC  bool
	// UnaryTime covers the initial per-node filters (label, degree,
	// self-loops, NLF); ACTime the classic sweeps; InducedACTime the
	// induced non-edge passes.
	UnaryTime, ACTime, InducedACTime time.Duration
	// DomainAfterUnary and DomainFinal are total domain sizes (sum of
	// candidates over pattern nodes) after the unary stage and after
	// all propagation.
	DomainAfterUnary, DomainFinal int
}

// String renders the plan the way logs and golden tables show it, e.g.
// "nlf+ac:1" or "ac:fixpoint+inducedAC".
func (p *PlanInfo) String() string {
	if p == nil {
		return "none"
	}
	pl := domain.Plan{
		NLF: p.NLF, AC: p.AC, ACPasses: p.ACPasses, ACAdaptive: p.ACAdaptive, InducedAC: p.InducedAC,
	}
	return pl.String()
}

// planInfo converts a domain preprocessing report to the public type.
func planInfo(st *domain.ComputeStats) *PlanInfo {
	if st == nil {
		return nil
	}
	return &PlanInfo{
		NLF: st.Plan.NLF, AC: st.Plan.AC, ACPasses: st.Plan.ACPasses, ACAdaptive: st.Plan.ACAdaptive, InducedAC: st.Plan.InducedAC,
		UnaryTime: st.UnaryTime, ACTime: st.ACTime, InducedACTime: st.InducedACTime,
		DomainAfterUnary: st.AfterUnary, DomainFinal: st.Final,
	}
}

// Enumerate finds all subgraphs of target isomorphic to pattern.
//
// It is a convenience wrapper building a throwaway session per call;
// code issuing several queries against one target should build a
// *Target once and use its ctx-aware methods instead.
func Enumerate(pattern, target *Graph, opts Options) (Result, error) {
	if pattern == nil || target == nil {
		return Result{}, fmt.Errorf("parsge: nil graph")
	}
	t, err := NewTarget(target, TargetOptions{})
	if err != nil {
		return Result{}, err
	}
	return t.Enumerate(context.Background(), pattern, opts) //sgelint:ignore ctxbackground one-shot convenience wrapper: no ctx in its signature by design; ctx-aware callers use Target.Enumerate
}

// autoWorkerCount sizes the pool for AutoWorkers: one worker per
// available CPU, but never more than the search root's branching factor
// (extra workers would start idle and only add scheduling overhead on a
// narrow search).
func autoWorkerCount(prep *ri.Prepared) int {
	roots := 0
	prep.RootCandidates(func(int32) bool {
		roots++
		return roots < 1024 // counting beyond the CPU count is pointless
	})
	w := runtime.GOMAXPROCS(0)
	if roots < w {
		w = roots
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Count is shorthand for Enumerate(...).Matches.
func Count(pattern, target *Graph, opts Options) (int64, error) {
	res, err := Enumerate(pattern, target, opts)
	return res.Matches, err
}

// LabelTable interns string labels for the text graph format.
type LabelTable = graphio.LabelTable

// NewLabelTable returns an empty label table.
func NewLabelTable() *LabelTable { return graphio.NewLabelTable() }

// NamedGraph is a graph plus the name of its file section.
type NamedGraph = graphio.NamedGraph

// ReadGraphs parses every graph section from r (see internal/graphio for
// the format), interning labels into table (which may be nil for a
// private table — but share one table between pattern and target files
// so equal label strings compare equal).
func ReadGraphs(r io.Reader, table *LabelTable) ([]NamedGraph, error) {
	return graphio.NewReader(r, table).ReadAll()
}

// WriteGraph serializes g as one text section.
func WriteGraph(w io.Writer, name string, g *Graph, table *LabelTable) error {
	return graphio.Write(w, name, g, table)
}

// Match is one enumerated embedding delivered by the service layer's
// channel form of a match stream (see StreamEnd). That form is an
// adapter for library callers; the HTTP server runs the stream as a
// callback and writes each match as it is found.
type Match struct {
	// Mapping maps pattern node id → target node id. The slice is owned
	// by the receiver.
	Mapping []int32
}

// Automorphisms returns the size of the pattern's automorphism group,
// computed by enumerating the pattern in itself: an injective map
// between equal-size graphs that preserves all edges is a bijection, and
// with equal edge counts it preserves them exactly — an automorphism.
// Divide Enumerate(...).Matches by this to convert ordered embeddings
// into distinct occurrences (vertex-set matches), as motif counting
// wants.
func Automorphisms(pattern *Graph) (int64, error) {
	if pattern == nil {
		return 0, fmt.Errorf("parsge: nil graph")
	}
	if pattern.NumNodes() == 0 {
		return 1, nil
	}
	return Count(pattern, pattern, Options{Algorithm: RI})
}
