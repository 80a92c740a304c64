package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"parsge/internal/graph"
)

// tinySuite keeps experiments fast for unit tests: minuscule scale, few
// instances, short timeout.
func tinySuite(out *bytes.Buffer) *Suite {
	s := &Suite{
		Scale:         0.012,
		Seed:          7,
		Timeout:       3 * time.Second,
		LongThreshold: 2 * time.Millisecond,
		Workers:       []int{1, 2, 4},
		MaxInstances:  8,
	}
	if out != nil {
		// Assign only non-nil buffers: a nil *bytes.Buffer inside the
		// io.Writer interface would pass != nil checks and then panic.
		s.Out = out
	}
	return s.Defaults()
}

func TestDefaults(t *testing.T) {
	s := (&Suite{}).Defaults()
	if s.Scale <= 0 || s.Timeout <= 0 || len(s.Workers) == 0 || s.MaxInstances == 0 {
		t.Fatalf("defaults incomplete: %+v", s)
	}
}

func TestTable1(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Table1()
	if len(res.Rows) != 3 {
		t.Fatalf("Table1 rows = %d, want 3", len(res.Rows))
	}
	if !strings.Contains(out.String(), "PPIS32") {
		t.Error("printed table misses PPIS32")
	}
}

func TestFig3(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig3()
	if len(res.Rows) != 2 {
		t.Fatalf("Fig3 rows = %d, want 2 (stealing off/on)", len(res.Rows))
	}
	if res.Rows[0].Stealing || !res.Rows[1].Stealing {
		t.Error("rows out of order")
	}
	// With stealing the division of work can only improve (or tie).
	if res.Rows[1].MeanWorkSpeedup+1e-9 < res.Rows[0].MeanWorkSpeedup {
		t.Errorf("stealing reduced work speedup: off=%.3f on=%.3f",
			res.Rows[0].MeanWorkSpeedup, res.Rows[1].MeanWorkSpeedup)
	}
	if !strings.Contains(out.String(), "work stealing") {
		t.Error("Fig3 output missing")
	}
}

func TestFig4(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig4()
	// 3 collections × 5 group sizes × 4 worker counts
	if len(res.Cells) != 3*5*4 {
		t.Fatalf("Fig4 cells = %d, want 60", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.MeanMatchTime < 0 || c.MeanSteals < 0 {
			t.Fatalf("negative means: %+v", c)
		}
	}
}

func TestTable2(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Table2()
	if res.Collection != "PDBSv1" || res.Algorithm != "RI" {
		t.Fatalf("Table2 config wrong: %+v", res)
	}
	if len(res.Rows) != 2 { // workers 2 and 4 of {1,2,4}
		t.Fatalf("Table2 rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.WorkAvg < 1-1e9 || r.WorkAvg > float64(r.Workers)+1e-9 {
			t.Errorf("work speedup %f out of [1, %d]", r.WorkAvg, r.Workers)
		}
	}
}

func TestTable3(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Table3()
	if len(res) != 2 {
		t.Fatalf("Table3 tables = %d, want 2", len(res))
	}
	names := map[string]bool{}
	for _, tb := range res {
		names[tb.Collection] = true
		if tb.Algorithm != "RI-DS-SI-FC" || !tb.UseTotal {
			t.Errorf("Table3 config wrong: %+v", tb)
		}
	}
	if !names["GRAEMLIN32"] || !names["PPIS32"] {
		t.Error("Table3 collections wrong")
	}
}

func TestFig5(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig5()
	if res.Total == 0 || len(res.Rows) != 3 {
		t.Fatalf("Fig5 shape wrong: %+v", res)
	}
	for _, r := range res.Rows {
		if r.TimeoutsParallel > res.Total || r.TimeoutsBaseline > res.Total {
			t.Fatalf("timeout counts exceed instance count: %+v", r)
		}
	}
}

func TestFig6(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig6()
	if res.Instances == 0 || len(res.Rows) != 3 {
		t.Fatalf("Fig6 shape wrong: %+v", res)
	}
}

func TestFig7(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig7()
	if len(res.Cells) != 9 { // 3 collections × 3 variants
		t.Fatalf("Fig7 cells = %d, want 9", len(res.Cells))
	}
	// SI-FC must never enlarge the search space relative to RI-DS on the
	// same collection (FC only removes candidates).
	byCollection := map[string]map[string]float64{}
	for _, c := range res.Cells {
		if byCollection[c.Collection] == nil {
			byCollection[c.Collection] = map[string]float64{}
		}
		byCollection[c.Collection][c.Variant] = c.MeanStates
	}
	for name, m := range byCollection {
		if m["RI-DS-SI-FC"] > m["RI-DS"]*1.001 {
			t.Errorf("%s: FC enlarged search space: %v", name, m)
		}
	}
}

func TestFig8(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig8()
	if len(res.Cells) != 6 { // 2 collections × 3 variants
		t.Fatalf("Fig8 cells = %d, want 6", len(res.Cells))
	}
	if !res.LongSample {
		t.Error("Fig8 should flag the long sample")
	}
}

func TestFig9(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig9()
	if len(res.Cells) != 6 {
		t.Fatalf("Fig9 cells = %d, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.TotalTime+1e-12 < c.MatchTime {
			t.Errorf("%s/%s: total %.6f < match %.6f", c.Collection, c.Variant, c.TotalTime, c.MatchTime)
		}
	}
}

func TestFig10(t *testing.T) {
	var out bytes.Buffer
	s := tinySuite(&out)
	res := s.Fig10()
	// 2 collections × 3 algorithms × 3 worker counts
	if len(res.Cells) != 18 {
		t.Fatalf("Fig10 cells = %d, want 18", len(res.Cells))
	}
}

func TestFig12(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Fig12()
	if len(res.Cells) != 4 {
		t.Fatalf("Fig12 cells = %d, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.MeanStatesShort < 0 || c.MeanStatesLong < 0 {
			t.Fatalf("negative search space: %+v", c)
		}
	}
}

func TestAblations(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).Ablations()
	if len(res) != 8 {
		t.Fatalf("ablations = %d, want 8", len(res))
	}
	for _, a := range res {
		if len(a.Rows) < 2 {
			t.Fatalf("%s: only %d rows", a.Title, len(a.Rows))
		}
	}
	// AC ablation: fixpoint search space ≤ single pass ≤ none.
	ac := res[3]
	if ac.Rows[2].MeanStates > ac.Rows[1].MeanStates*1.001 ||
		ac.Rows[1].MeanStates > ac.Rows[0].MeanStates*1.001 {
		t.Errorf("AC depth did not shrink search space: %+v", ac.Rows)
	}
}

// TestAblationPruningFilters is the acceptance check for the
// semantics-aware pruning subsystem on a dense (PPIS32) and a sparse
// (PDBSv1) collection under every matching semantics — the win is
// measured, not asserted. Soundness (identical match counts) is covered
// by the root-package differential tests; this test covers efficacy:
//
//   - wiring the subsystem into VF2 must strictly shrink its visited
//     search space for every (collection, semantics) pair;
//   - the RI-DS filters must never meaningfully enlarge the search
//     space, and the induced non-edge propagation must strictly shrink
//     it on the dense collection (where target edges make pattern
//     non-edges binding);
//   - under induced semantics, no individual filter may beat the full
//     filter set.
func TestAblationPruningFilters(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).AblationPruningFilters()

	rows := make(map[string]AblationRow, len(res.Rows))
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	row := func(coll string, sem graph.Semantics, config string) AblationRow {
		r, ok := rows[PruningRowName(coll, sem, config)]
		if !ok {
			t.Fatalf("%s/%v: missing ablation row %q", coll, sem, config)
		}
		return r
	}
	for _, coll := range []string{"PPIS32", "PDBSv1"} {
		for _, sem := range pruningSemantics {
			von := row(coll, sem, "VF2 pruned")
			voff := row(coll, sem, "VF2 baseline")
			if von.MeanStates >= voff.MeanStates {
				t.Errorf("%s under %v: pruning subsystem did not shrink VF2's search space: on=%.0f off=%.0f states",
					coll, sem, von.MeanStates, voff.MeanStates)
			}
			ron := row(coll, sem, "RI-DS filters on")
			roff := row(coll, sem, "RI-DS filters off")
			if ron.MeanStates > roff.MeanStates*1.05 {
				t.Errorf("%s under %v: filters enlarged the RI-DS search space: on=%.0f off=%.0f states",
					coll, sem, ron.MeanStates, roff.MeanStates)
			}
			// Kernel acceptance: the bitset and slice kernels are the
			// same algorithm over different set representations — match
			// counts must agree exactly, the search must not allocate
			// more under bitset than slice (the row bit tests replace
			// nothing that allocated, and the reusable-scratch fix
			// applies to both), and the state count is kernel-invariant.
			kb := row(coll, sem, "RI-DS bitset kernel")
			ks := row(coll, sem, "RI-DS slice kernel")
			if kb.TotalMatches != ks.TotalMatches {
				t.Errorf("%s under %v: kernel count mismatch: bitset=%d slice=%d matches",
					coll, sem, kb.TotalMatches, ks.TotalMatches)
			}
			if kb.MeanStates != ks.MeanStates {
				t.Errorf("%s under %v: kernel state mismatch: bitset=%.0f slice=%.0f states",
					coll, sem, kb.MeanStates, ks.MeanStates)
			}
			if kb.MeanAllocs > ks.MeanAllocs+1 {
				t.Errorf("%s under %v: bitset kernel allocates more: bitset=%.1f slice=%.1f allocs",
					coll, sem, kb.MeanAllocs, ks.MeanAllocs)
			}
		}
	}
	// Dense targets make induced non-edge constraints binding: the
	// filters must collapse the induced search space outright.
	denseOn := row("PPIS32", graph.InducedIso, "RI-DS filters on")
	denseOff := row("PPIS32", graph.InducedIso, "RI-DS filters off")
	if denseOn.MeanStates >= denseOff.MeanStates {
		t.Errorf("PPIS32 induced: filters did not shrink RI-DS search space: on=%.0f off=%.0f states",
			denseOn.MeanStates, denseOff.MeanStates)
	}
	// Under induced semantics each filter must individually not hurt.
	for _, coll := range []string{"PPIS32", "PDBSv1"} {
		on := row(coll, graph.InducedIso, "RI-DS filters on")
		for _, partial := range []string{"RI-DS no NLF", "RI-DS no induced-AC"} {
			p := row(coll, graph.InducedIso, partial)
			if on.MeanStates > p.MeanStates*1.05 {
				t.Errorf("%s induced: %q explored fewer states (%.0f) than all filters (%.0f)",
					coll, partial, p.MeanStates, on.MeanStates)
			}
		}
	}
}

// TestAblationAdaptiveSchedule is the acceptance check for the adaptive
// preprocessing scheduler: on both the dense (PPIS32) and the sparse
// (PDBSv1) collection, under every semantics, Auto must never be slower
// than the *worst* Fixed configuration of the schedule space it chooses
// from — the minimal bar for an adaptive policy. The comparison uses
// mean total time (preprocessing + search, the quantity the schedule
// trades) with a tolerance plus an absolute floor, since the tiny test
// instances run in microseconds where scheduler noise dominates.
func TestAblationAdaptiveSchedule(t *testing.T) {
	var out bytes.Buffer
	res := tinySuite(&out).AblationAdaptiveSchedule()

	rows := make(map[string]AblationRow, len(res.Rows))
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	for _, coll := range []string{"PPIS32", "PDBSv1"} {
		for _, sem := range pruningSemantics {
			auto, ok := rows[ScheduleRowName(coll, sem, "Auto")]
			if !ok {
				t.Fatalf("%s/%v: missing Auto row", coll, sem)
			}
			worst, worstName := 0.0, ""
			for _, fc := range scheduleFixedConfigs {
				r, ok := rows[ScheduleRowName(coll, sem, fc.name)]
				if !ok {
					continue // induced-only row outside InducedIso
				}
				if r.MeanTotalTime > worst {
					worst, worstName = r.MeanTotalTime, fc.name
				}
			}
			if worstName == "" {
				t.Fatalf("%s/%v: no Fixed rows", coll, sem)
			}
			if auto.MeanTotalTime > worst*1.5+0.002 {
				t.Errorf("%s under %v: Auto (%.6fs) slower than the worst Fixed configuration %q (%.6fs)",
					coll, sem, auto.MeanTotalTime, worstName, worst)
			}
		}
	}
}

func TestRecordHelpers(t *testing.T) {
	r := Record{Preproc: time.Second, Match: 2 * time.Second}
	if r.Total() != 3*time.Second {
		t.Error("Total wrong")
	}
	if r.WorkSpeedup() != 1 {
		t.Error("sequential work speedup should be 1")
	}
	r.PerWorkerStates = []int64{50, 50}
	if r.WorkSpeedup() != 2 {
		t.Errorf("balanced 2-worker speedup = %f, want 2", r.WorkSpeedup())
	}
	r.PerWorkerStates = []int64{100, 0}
	if r.WorkSpeedup() != 1 {
		t.Errorf("degenerate speedup = %f, want 1", r.WorkSpeedup())
	}
	r.PerWorkerStates = []int64{0, 0}
	if r.WorkSpeedup() != 1 {
		t.Error("zero-state speedup should be 1")
	}
}

func TestHardestInstancesOrdering(t *testing.T) {
	s := tinySuite(nil)
	insts := s.hardestInstances("PPIS32", 3)
	if len(insts) != 3 {
		t.Fatalf("hardest = %d, want 3", len(insts))
	}
	all := s.hardestInstances("PPIS32", 10000)
	if len(all) > s.MaxInstances {
		t.Fatalf("hardest returned %d > MaxInstances %d", len(all), s.MaxInstances)
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	s := tinySuite(nil)
	s.CSVDir = dir
	s.Table1()
	s.Fig3()
	res := s.Table2()
	if len(res.Rows) == 0 {
		t.Fatal("table2 empty")
	}
	for _, f := range []string{"table1.csv", "fig3.csv", "table2.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", f, lines)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("steal end (§3.2(ii): back = near root)"); got != "steal_end_32ii_back_near_root" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestCensusThroughputExperiment is the census acceptance test: every
// measured PPIS32 target yields a complete cell, and in each the
// parallel ESU walk reproduces the sequential counts exactly and
// divides the work at least 2x at k=4. Wall-clock speedup is only
// meaningful with enough cores under the workers, so it is gated on
// GOMAXPROCS.
func TestCensusThroughputExperiment(t *testing.T) {
	var out bytes.Buffer
	s := tinySuite(&out)
	res := s.CensusThroughput()
	if len(res.Cells) == 0 {
		t.Fatal("census experiment produced no cells")
	}
	if want := min(len(s.collection("PPIS32").Targets), censusTargets); len(res.Cells) != want {
		t.Fatalf("census experiment produced %d cells, want one per measured target (%d)", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.truncated {
			t.Fatalf("census cell n=%d was truncated without a cancellation", c.Nodes)
		}
		if !c.Consistent {
			t.Fatalf("parallel census diverged from sequential on n=%d m=%d", c.Nodes, c.Edges)
		}
		if c.Subgraphs == 0 {
			t.Fatalf("empty census on a dense PPIS32 target (n=%d)", c.Nodes)
		}
		if c.WorkSpeedup < 2 {
			t.Fatalf("work-division speedup %.2fx on n=%d with %d workers, want >= 2x",
				c.WorkSpeedup, c.Nodes, res.Workers)
		}
	}
	if runtime.GOMAXPROCS(0) >= 4 && res.MeanWallSpeedup < 1.5 {
		t.Fatalf("mean wall speedup %.2fx on a %d-proc host, want >= 1.5x",
			res.MeanWallSpeedup, runtime.GOMAXPROCS(0))
	}
	if !strings.Contains(out.String(), "work speedup") {
		t.Error("census table not printed")
	}
}
