package domain

import (
	"fmt"
	"math"
	"slices"
	"time"

	"parsge/internal/graph"
)

// Schedule selects how the preprocessing filter pipeline is chosen for a
// query. The filters themselves are always sound — the schedule only
// decides which of them are worth their cost on this target, so match
// counts are identical under every schedule (the metamorphic battery
// holds every point of the schedule space to the brute-force oracle).
type Schedule int32

const (
	// ScheduleAuto (the zero value) adapts the filter plan to the
	// target's cached statistics (density, label entropy, degree skew)
	// and the pattern's shape: NLF plus a single capped arc-consistency
	// pass on label-rich targets (where the initial domains are already
	// near-tight and the fixpoint rarely pays), fixpoint arc consistency
	// otherwise, and the induced non-edge propagation only on targets
	// dense enough for pattern non-edges to be binding. This closes the
	// preprocessing-cost-vs-search-savings trade the source paper
	// highlights (§4.1/§5: "preprocessing time is negligible" only
	// because the schedule is matched to the collection).
	ScheduleAuto Schedule = iota
	// ScheduleFixed runs the full fixed pipeline of earlier versions:
	// every applicable filter on, arc consistency to fixpoint (unless
	// ACPasses caps it explicitly). Use it to reproduce paper-style runs
	// exactly and as the reference the ablation bench measures Auto
	// against.
	ScheduleFixed
)

// String names the schedule for logs and golden tables.
func (s Schedule) String() string {
	switch s {
	case ScheduleAuto:
		return "auto"
	case ScheduleFixed:
		return "fixed"
	default:
		return fmt.Sprintf("Schedule(%d)", int32(s))
	}
}

// Plan is the resolved filter plan of one Compute run: which filters
// fired and how deep arc consistency went. It is recorded in ComputeStats
// so callers can report (and tests can pin) what the scheduler decided.
type Plan struct {
	// NLF reports the neighborhood-label-frequency filter ran.
	NLF bool
	// AC reports classic arc consistency ran; ACPasses is its sweep cap
	// (0 = fixpoint).
	AC       bool
	ACPasses int
	// ACAdaptive reports the second-stage online rule ran: arc
	// consistency probed one sweep and then decided — from the measured
	// domain sizes, not a prediction — whether to continue to fixpoint.
	// ACPasses then records the outcome: 1 when the probe stopped, 0
	// when domains stayed large and the sweeps escalated to fixpoint.
	ACAdaptive bool
	// InducedAC reports the induced non-edge propagation ran (only ever
	// true under graph.InducedIso).
	InducedAC bool
}

// String renders the plan compactly, e.g. "nlf+ac:1" or
// "nlf+ac:fixpoint+inducedAC".
func (p Plan) String() string {
	s := ""
	add := func(part string) {
		if s != "" {
			s += "+"
		}
		s += part
	}
	if p.NLF {
		add("nlf")
	}
	if p.AC {
		switch {
		case p.ACAdaptive && p.ACPasses == 0:
			add("ac:adaptive:fixpoint")
		case p.ACAdaptive:
			add(fmt.Sprintf("ac:adaptive:%d", p.ACPasses))
		case p.ACPasses == 0:
			add("ac:fixpoint")
		default:
			add(fmt.Sprintf("ac:%d", p.ACPasses))
		}
	}
	if p.InducedAC {
		add("inducedAC")
	}
	if s == "" {
		return "unary-only"
	}
	return s
}

// ComputeStats reports what one Compute run did: the resolved plan,
// per-filter wall times, and the total domain size after each pipeline
// stage (the reviewable trace golden tests pin).
type ComputeStats struct {
	Plan Plan
	// UnaryTime covers the initial per-node filter (label, degree,
	// self-loops, NLF); ACTime the classic arc-consistency sweeps;
	// InducedACTime the induced non-edge passes (interleaved with AC in
	// the joint fixpoint but timed separately).
	UnaryTime, ACTime, InducedACTime time.Duration
	// AfterUnary and Final are total domain sizes (sum over pattern
	// nodes) after the unary stage and after all propagation. AfterPass1
	// is the size after the first arc-consistency sweep — the signal the
	// adaptive second-stage rule reads (0 when AC did not run).
	AfterUnary, AfterPass1, Final int
	// LogDomainProduct is log2 of the product of final domain sizes —
	// the staged upper bound on candidate assignments (see
	// Domains.LogProduct), the cheap cost signal the service's admission
	// model classifies on. Zero when some domain ran empty.
	LogDomainProduct float64
	// Rows carries the BitGraph adjacency rows the propagation passes
	// used (nil under the slice kernel, or when the target exceeds
	// graph.DenseRowLimit), so engines reuse them instead of rebuilding.
	Rows *graph.BitGraph
	// unaryRows records that the unary filter took the threshold rows,
	// and blockedPrunes counts the induced revisions a blocked set
	// removed candidates in: coverage for the differential battery.
	unaryRows     bool
	blockedPrunes int
}

// TargetStats are the target-side statistics the adaptive schedule
// consults. They are cached in Index at construction, so Auto scheduling
// costs nothing per query on a session; StatsOf computes them directly
// for index-free paths.
type TargetStats struct {
	Nodes, Edges int
	// Labels is the number of distinct node labels.
	Labels int
	// MeanDegree is the mean total degree (the paper's Table 1 µ).
	MeanDegree float64
	// Density is the arc density m / (n·(n−1)), in [0, ~1] for simple
	// graphs (self-loops and parallels can push it past 1).
	Density float64
	// LabelEntropy is the Shannon entropy of the node-label distribution
	// in bits: 0 for unlabeled graphs, log2(k) for k uniform labels.
	LabelEntropy float64
	// DegreeSkew is the coefficient of variation (σ/µ) of the total
	// degree: ~0 for regular graphs, large for hub-dominated ones.
	DegreeSkew float64
}

// StatsOf computes TargetStats in one O(n) pass over the graph.
func StatsOf(g *graph.Graph) TargetStats {
	st, _, _ := statsWithSums(g)
	return st
}

// statsWithSums computes TargetStats together with the integer degree
// accumulators (Σ deg, Σ deg²) the derived fields are computed from.
// Everything here is deterministic bit-for-bit: the entropy sums over
// labels in ascending order and the degree moments are exact integer
// sums fed through one shared float pipeline (fillDegreeStats) — so an
// incrementally-maintained Index (which adjusts the sums for touched
// vertices only) reproduces a from-scratch rebuild exactly, which the
// differential update battery asserts.
func statsWithSums(g *graph.Graph) (st TargetStats, sumDeg, sumSqDeg int64) {
	st = TargetStats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if st.Nodes == 0 {
		return st, 0, 0
	}
	hist := make(map[graph.Label]int)
	for v := int32(0); v < int32(st.Nodes); v++ {
		hist[g.NodeLabel(v)]++
	}
	st.Labels = len(hist)
	st.LabelEntropy = labelEntropy(hist, st.Nodes)
	for v := int32(0); v < int32(st.Nodes); v++ {
		d := int64(g.Degree(v))
		sumDeg += d
		sumSqDeg += d * d
	}
	fillDegreeStats(&st, sumDeg, sumSqDeg)
	return st, sumDeg, sumSqDeg
}

// labelEntropy computes the Shannon entropy of a label histogram in a
// deterministic (sorted-label) order — float addition is not
// associative, so map-iteration order would make the low bits of the
// result vary run to run.
func labelEntropy(hist map[graph.Label]int, nodes int) float64 {
	labels := make([]graph.Label, 0, len(hist))
	for l := range hist {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	n := float64(nodes)
	entropy := 0.0
	for _, l := range labels {
		p := float64(hist[l]) / n
		entropy -= p * math.Log2(p)
	}
	return entropy
}

// fillDegreeStats derives MeanDegree, DegreeSkew and Density from the
// exact integer degree moments. Shared by fresh stats computation and
// incremental index maintenance so the two produce identical floats.
func fillDegreeStats(st *TargetStats, sumDeg, sumSqDeg int64) {
	if st.Nodes == 0 {
		return
	}
	n := float64(st.Nodes)
	mean := float64(sumDeg) / n
	st.MeanDegree = mean
	variance := float64(sumSqDeg)/n - mean*mean
	if variance < 0 {
		variance = 0 // float cancellation on near-regular graphs
	}
	if mean > 0 {
		st.DegreeSkew = math.Sqrt(variance) / mean
	}
	if st.Nodes > 1 {
		st.Density = float64(st.Edges) / (n * (n - 1))
	}
}

// Thresholds of the Auto heuristic. They are deliberately few and
// coarse — the schedule only has to avoid the clearly wasted work
// (fixpoint sweeps on already-tight label-rich domains, non-edge
// propagation on sparse targets where every non-edge is trivially
// supported), not to find an optimum.
const (
	// labelRichEntropy: above this many bits of node-label entropy the
	// initial label+NLF filter already separates candidates well, so a
	// single AC pass (the original RI-DS schedule) suffices. 1.0 bit ≈
	// two balanced labels; the paper's dense collections carry 32.
	labelRichEntropy = 1.0
	// wildSkew: with a hub-dominated degree distribution domains stay
	// irregular after one pass, so the fixpoint is kept even on
	// label-rich targets.
	wildSkew = 1.5
	// inducedDenseDensity / inducedDenseMeanDegree: the induced non-edge
	// propagation only prunes when candidates' neighborhoods cover a
	// meaningful fraction of the other domains (see inducedPass's
	// pigeonhole bound: a domain larger than deg+1 always has support).
	// Either a high relative density or a high absolute mean degree
	// marks a target where the sweep can pay.
	inducedDenseDensity    = 0.08
	inducedDenseMeanDegree = 12.0
	// acEscalateMeanDomain: the second-stage online rule. When the
	// adaptive schedule capped arc consistency at one pass (label-rich
	// target) but the mean domain size after that pass is still at least
	// this many candidates per pattern node, the prediction "one pass
	// suffices" was wrong for this query — further sweeps have plenty
	// left to prune and the search would otherwise pay for it — so the
	// sweeps continue to fixpoint.
	acEscalateMeanDomain = 8.0
)

// AutoTune resolves the adaptive schedule: it inspects the target's
// statistics (taken from opts.Index when one is attached, computed
// directly otherwise), the pattern's shape, and the matching semantics,
// and returns opts with the filter knobs filled in. Knobs the caller
// already set explicitly are respected: a skipped filter stays skipped
// (ablations compose with Auto), and a positive ACPasses cap is kept.
//
// The rules implement the ROADMAP follow-ups of the pruning subsystem:
//
//   - NLF's marginal value over *fixpoint* AC is the multiset counting;
//     its payoff grows when AC is capped or labels are rich. So on
//     label-rich targets Auto runs NLF + a single AC pass; on label-poor
//     targets it drops NLF (the signatures would be near-constant) and
//     runs AC to fixpoint. A wildly skewed degree distribution keeps the
//     fixpoint even when labels are rich. The one-pass cap is adaptive
//     (Options.ACAdaptive): the sweep measures the domains it leaves
//     behind and escalates to fixpoint when they stay large — the
//     second-stage rule that corrects the static prediction online with
//     ComputeStats.AfterPass1 instead of trusting target statistics
//     alone.
//   - A pattern without edges makes both NLF and AC no-ops; they are
//     skipped outright.
//   - The induced non-edge propagation is gated on target density (and
//     on the pattern actually having non-edges): on sparse targets every
//     candidate's non-adjacent support exists by pigeonhole and the
//     sweep is wasted.
func AutoTune(opts Options, gp, gt *graph.Graph) Options {
	var st TargetStats
	if ix := opts.Index; ix != nil && ix.nt == gt.NumNodes() {
		st = ix.stats
	} else {
		st = StatsOf(gt)
	}
	patternEdges := gp.NumEdges()

	if !opts.SkipNLF {
		labelRich := st.LabelEntropy >= labelRichEntropy
		opts.SkipNLF = patternEdges == 0 || !labelRich
		if labelRich && opts.ACPasses == 0 && !opts.SkipAC && st.DegreeSkew < wildSkew {
			// The cap is the scheduler's own prediction, not a caller
			// knob, so it may be revised online: ACAdaptive lets the
			// sweep escalate to fixpoint when the measured post-pass
			// domains say one pass was not enough. An explicit caller
			// ACPasses is never made adaptive.
			opts.ACPasses = 1
			opts.ACAdaptive = true
		}
	}
	if patternEdges == 0 {
		opts.SkipAC = true
	}
	if opts.Semantics.Norm().Induced() && !opts.SkipInducedAC {
		dense := st.Density >= inducedDenseDensity || st.MeanDegree >= inducedDenseMeanDegree
		opts.SkipInducedAC = !dense || !patternHasNonEdge(gp)
	}
	opts.Kernel = ResolveKernel(opts.Kernel, st.Nodes)
	return opts
}

// patternHasNonEdge reports whether some ordered pattern pair (self
// pairs excluded — those are the unary self-loop filter) lacks an edge,
// i.e. whether induced non-edge propagation has anything to propagate.
func patternHasNonEdge(gp *graph.Graph) bool {
	n := int32(gp.NumNodes())
	for u := int32(0); u < n; u++ {
		for w := int32(0); w < n; w++ {
			if u != w && !gp.HasEdge(u, w) {
				return true
			}
		}
	}
	return false
}
