package bench

import (
	"parsge/internal/datasets"
	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/order"
	"parsge/internal/ri"
	"parsge/internal/stats"
)

// Ablations beyond the paper's figures: each isolates one design choice
// called out in DESIGN.md and measures its effect on a hard sample.

// AblationRow is one configuration of an ablation experiment.
type AblationRow struct {
	Name          string
	MeanMatchTime float64
	MeanTotalTime float64
	MeanSteals    float64
	MeanStates    float64
	MeanPreproc   float64
	WorkSpeedup   float64
	// MeanAllocs is the mean match-phase heap allocation count (only
	// measured on sequential RI runs, 0 elsewhere; see Record.Allocs).
	MeanAllocs float64
	// TotalMatches sums matches over the aggregated records — the exact
	// count the kernel acceptance test compares across configurations.
	TotalMatches int64
}

// AblationResult is a titled list of configurations.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// aggregate folds records into an AblationRow.
func aggregate(name string, recs []Record) AblationRow {
	var ws []float64
	for _, r := range recs {
		ws = append(ws, r.WorkSpeedup())
	}
	var allocs []float64
	var matches int64
	for _, r := range recs {
		allocs = append(allocs, float64(r.Allocs))
		matches += r.Matches
	}
	return AblationRow{
		Name:          name,
		MeanMatchTime: meanSeconds(matchTimes(recs)),
		MeanTotalTime: meanSeconds(totalTimes(recs)),
		MeanSteals:    meanSteals(recs),
		MeanStates:    meanStates(recs),
		MeanPreproc:   meanSeconds(preprocTimes(recs)),
		WorkSpeedup:   stats.Mean(ws),
		MeanAllocs:    stats.Mean(allocs),
		TotalMatches:  matches,
	}
}

func (s *Suite) printAblation(res AblationResult) {
	s.printf("\n== Ablation: %s ==\n", res.Title)
	w := s.tab()
	row(w, "configuration\tmatch (s)\ttotal (s)\tsteals\tstates\tpreproc (s)\twork speedup\tallocs")
	for _, r := range res.Rows {
		row(w, "%s\t%.4f\t%.4f\t%.1f\t%.0f\t%.5f\t%.2f\t%.0f",
			r.Name, r.MeanMatchTime, r.MeanTotalTime, r.MeanSteals, r.MeanStates, r.MeanPreproc, r.WorkSpeedup, r.MeanAllocs)
	}
	flush(w)
}

// AblationStealEnd compares stealing from the back of the victim's deque,
// its shallowest frame (the paper's design: tasks near the root,
// long-running, few steals), against stealing from the front, its
// deepest frame (deep, short-lived tasks).
func (s *Suite) AblationStealEnd() AblationResult {
	insts := s.hardestInstances("PPIS32", 8)
	res := AblationResult{Title: "load balancing (steal end §3.2(ii))"}
	back := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, seed: s.Seed,
	})
	front := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, frontSteal: true, seed: s.Seed,
	})
	res.Rows = append(res.Rows,
		aggregate("steal from back (paper)", back),
		aggregate("steal from front", front))
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// AblationEagerCopy compares the paper's lazy mapping transfer (copy only
// on steals) against copying the mapping prefix for every group of
// candidates a worker puts in a frame — the overhead the paper
// attributes to the Cilk++ VF2 parallelization (§2.2.2).
func (s *Suite) AblationEagerCopy() AblationResult {
	insts := s.hardestInstances("GRAEMLIN32", 8)
	res := AblationResult{Title: "mapping copies (lazy on steal vs eager per task)"}
	lazy := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, seed: s.Seed,
	})
	eager := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, eagerCopy: true, seed: s.Seed,
	})
	res.Rows = append(res.Rows, aggregate("lazy copy (paper)", lazy), aggregate("eager copy", eager))
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// AblationInitialDistribution compares the paper's round-robin initial
// work distribution (§3.3) against seeding all root tasks on worker 0,
// which forces every other worker to bootstrap via stealing.
func (s *Suite) AblationInitialDistribution() AblationResult {
	insts := s.hardestInstances("PPIS32", 8)
	res := AblationResult{Title: "initial distribution (§3.3)"}
	rr := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, seed: s.Seed,
	})
	w0 := s.runAll(insts, runConfig{
		variant: ri.VariantRIDS, workers: 8, group: 4, stealing: true, noInitDist: true, seed: s.Seed,
	})
	res.Rows = append(res.Rows, aggregate("round-robin (paper)", rr), aggregate("all on worker 0", w0))
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// AblationArcConsistency compares domain preprocessing depth: no arc
// consistency, a single pass (the original RI-DS description), and the
// fixpoint this implementation defaults to. The NLF filter is disabled
// for all three configurations so the measurement isolates AC depth
// (with NLF on, initial domains are already near-tight and ordering
// noise would swamp the AC effect).
func (s *Suite) AblationArcConsistency() AblationResult {
	insts := s.instances("GRAEMLIN32")
	res := AblationResult{Title: "arc-consistency depth (domains, §4.1; NLF off)"}
	none := s.runAll(insts, runConfig{variant: ri.VariantRIDS, workers: 1, skipAC: true, skipNLF: true})
	one := s.runAll(insts, runConfig{variant: ri.VariantRIDS, workers: 1, acPasses: 1, skipNLF: true})
	fix := s.runAll(insts, runConfig{variant: ri.VariantRIDS, workers: 1, skipNLF: true})
	res.Rows = append(res.Rows,
		aggregate("no AC (label+degree only)", none),
		aggregate("single pass (RI-DS paper)", one),
		aggregate("fixpoint (this impl)", fix))
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// pruningSemantics are the semantics the pruning ablation sweeps.
var pruningSemantics = []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}

// PruningRowName names one pruning-ablation configuration; the
// acceptance tests parse rows back by these names.
func PruningRowName(collection string, sem graph.Semantics, config string) string {
	return collection + "/" + sem.String() + "/" + config
}

// AblationPruningFilters measures the semantics-aware pruning
// subsystem on a dense (PPIS32) and a sparse (PDBSv1) collection under
// all three matching semantics, along two axes:
//
//   - the RI-DS pipeline with all filters on vs the pre-subsystem
//     baseline (label/degree + classic arc consistency only), plus —
//     under induced semantics, where the non-edge propagation is the
//     dominant filter — each new filter off individually;
//   - the VF2 engine with the pruning subsystem wired in vs its classic
//     domain-free baseline, measuring what threading the shared domain
//     reductions through an engine that historically had none buys.
//
// Instances are restricted to small patterns so the homomorphism sweeps
// stay cheap.
func (s *Suite) AblationPruningFilters() AblationResult {
	res := AblationResult{Title: "semantics-aware pruning (NLF + induced non-edge AC; RI-DS and VF2 wiring)"}
	for _, coll := range []string{"PPIS32", "PDBSv1"} {
		insts := s.smallInstances(coll, 6, 8)
		for _, sem := range pruningSemantics {
			base := runConfig{variant: ri.VariantRIDSSIFC, workers: 1, semantics: sem}
			off := base
			off.skipNLF, off.skipInducedAC = true, true
			res.Rows = append(res.Rows,
				aggregate(PruningRowName(coll, sem, "RI-DS filters on"), s.runAll(insts, base)),
				aggregate(PruningRowName(coll, sem, "RI-DS filters off"), s.runAll(insts, off)))
			if sem == graph.InducedIso {
				noNLF, noIAC := base, base
				noNLF.skipNLF = true
				noIAC.skipInducedAC = true
				res.Rows = append(res.Rows,
					aggregate(PruningRowName(coll, sem, "RI-DS no NLF"), s.runAll(insts, noNLF)),
					aggregate(PruningRowName(coll, sem, "RI-DS no induced-AC"), s.runAll(insts, noIAC)))
			}
			vf2On := runConfig{vf2: true, semantics: sem}
			vf2Off := runConfig{vf2: true, vf2SkipDomains: true, semantics: sem}
			res.Rows = append(res.Rows,
				aggregate(PruningRowName(coll, sem, "VF2 pruned"), s.runAll(insts, vf2On)),
				aggregate(PruningRowName(coll, sem, "VF2 baseline"), s.runAll(insts, vf2Off)))
			// Kernel axis: the same full pipeline under the bitset vs the
			// slice candidate-intersection kernel. Counts must agree
			// exactly and bitset must not allocate more than slice — the
			// acceptance criteria of the BitGraph kernel layer.
			bitset, slice := base, base
			bitset.kernel, slice.kernel = domain.KernelBitset, domain.KernelSlice
			res.Rows = append(res.Rows,
				aggregate(PruningRowName(coll, sem, "RI-DS bitset kernel"), s.runAll(insts, bitset)),
				aggregate(PruningRowName(coll, sem, "RI-DS slice kernel"), s.runAll(insts, slice)))
		}
	}
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// ScheduleRowName names one adaptive-schedule configuration; the
// acceptance tests parse rows back by these names.
func ScheduleRowName(collection string, sem graph.Semantics, config string) string {
	return collection + "/" + sem.String() + "/" + config
}

// scheduleFixedConfigs are the Fixed-pipeline points the adaptive
// schedule is measured against: the full PR 3 pipeline, the original
// RI-DS single-pass schedule, and each adaptive-controlled filter
// forced off. "Auto" must never be slower than the worst of these —
// that is the whole claim of an adaptive schedule (never pick a plan
// worse than the configurations it chooses among).
var scheduleFixedConfigs = []struct {
	name string
	cfg  func(runConfig) runConfig
}{
	{"Fixed/full", func(c runConfig) runConfig { return c }},
	{"Fixed/AC1", func(c runConfig) runConfig { c.acPasses = 1; return c }},
	{"Fixed/noNLF", func(c runConfig) runConfig { c.skipNLF = true; return c }},
	{"Fixed/no-induced-AC", func(c runConfig) runConfig { c.skipInducedAC = true; return c }},
}

// AblationAdaptiveSchedule measures the adaptive preprocessing
// scheduler (domain.ScheduleAuto) against the Fixed schedule space it
// chooses from, on a dense (PPIS32) and a sparse (PDBSv1) collection
// under all three matching semantics. Match counts are identical across
// every row (all filters are sound; the root-package metamorphic
// battery proves it) — the measurement is preprocessing cost versus
// search savings, the trade the source paper's §4.1/§5 "preprocessing
// time is negligible" observation rests on.
func (s *Suite) AblationAdaptiveSchedule() AblationResult {
	res := AblationResult{Title: "adaptive preprocessing schedule (Auto vs the Fixed schedule space)"}
	for _, coll := range []string{"PPIS32", "PDBSv1"} {
		insts := s.smallInstances(coll, 6, 8)
		for _, sem := range pruningSemantics {
			base := runConfig{variant: ri.VariantRIDSSIFC, workers: 1, semantics: sem}
			auto := base
			auto.autoSchedule = true
			res.Rows = append(res.Rows,
				aggregate(ScheduleRowName(coll, sem, "Auto"), s.runAll(insts, auto)))
			for _, fc := range scheduleFixedConfigs {
				if fc.name == "Fixed/no-induced-AC" && sem != graph.InducedIso {
					continue // the induced pass never runs outside InducedIso
				}
				res.Rows = append(res.Rows,
					aggregate(ScheduleRowName(coll, sem, fc.name), s.runAll(insts, fc.cfg(base))))
			}
		}
	}
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

// smallInstances returns up to k instances of the collection whose
// patterns have at most maxEdges undirected edges. Unlike instances it
// filters the full collection (not just the MaxInstances prefix), since
// small patterns are interleaved with large ones.
func (s *Suite) smallInstances(name string, k, maxEdges int) []datasets.Instance {
	var out []datasets.Instance
	for _, inst := range s.collection(name).Instances() {
		if inst.Pattern.NumEdges()/2 <= maxEdges {
			out = append(out, inst)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// Ablations runs every ablation.
func (s *Suite) Ablations() []AblationResult {
	return []AblationResult{
		s.AblationStealEnd(),
		s.AblationEagerCopy(),
		s.AblationInitialDistribution(),
		s.AblationArcConsistency(),
		s.AblationOrdering(),
		s.AblationPruningFilters(),
		s.AblationAdaptiveSchedule(),
		s.AblationAdmission(),
	}
}

// AblationOrdering compares RI's GreatestConstraintFirst static ordering
// against a degree-only ordering — the kind of weaker static strategy the
// variable-ordering study underlying RI rules out (Bonnici & Giugno,
// TCBB 2017, cited as [17] in the paper).
func (s *Suite) AblationOrdering() AblationResult {
	insts := s.hardestInstances("PDBSv1", 10)
	res := AblationResult{Title: "node ordering (GCF vs degree-only)"}
	gcf := s.runAll(insts, runConfig{variant: ri.VariantRI, workers: 1})
	deg := s.runAll(insts, runConfig{variant: ri.VariantRI, workers: 1, orderStrategy: order.DegreeOnly})
	res.Rows = append(res.Rows,
		aggregate("GreatestConstraintFirst (paper)", gcf),
		aggregate("degree-only", deg))
	s.printAblation(res)
	s.csvAblation(res)
	return res
}
