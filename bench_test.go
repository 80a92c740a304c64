// Benchmarks regenerating every table and figure of the paper's
// evaluation (Kimmig et al. §5), one testing.B entry point each, plus
// micro-benchmarks of the engines and the ablation studies listed in
// DESIGN.md.
//
// Each figure benchmark runs the corresponding experiment of
// internal/bench on a scaled-down synthetic collection per iteration and
// reports the experiment's headline metric with b.ReportMetric, so
// `go test -bench=.` doubles as a quick reproduction run. For
// publication-shaped output use cmd/sgebench, which prints the full
// paper-style tables and accepts larger scales.
package parsge_test

import (
	"testing"
	"time"

	"parsge"
	"parsge/internal/bench"
	"parsge/internal/testutil"
)

// benchSuite builds a small, deterministic suite. Scale and instance
// caps are chosen so the full -bench=. sweep finishes in minutes on one
// machine; crank them up via cmd/sgebench for bigger runs.
func benchSuite() *bench.Suite {
	return (&bench.Suite{
		Scale:         0.02,
		Seed:          20170525,
		Timeout:       5 * time.Second,
		LongThreshold: 10 * time.Millisecond,
		Workers:       []int{1, 2, 4, 8, 16},
		MaxInstances:  12,
		Out:           nil, // metrics only; sgebench prints the tables
	}).Defaults()
}

// BenchmarkTable1Collections regenerates Table 1 (collection statistics).
func BenchmarkTable1Collections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res := s.Table1()
		if len(res.Rows) != 3 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFig3WorkStealing regenerates Fig 3 (work stealing on/off:
// match time and per-worker search-space stddev, 16 workers).
func BenchmarkFig3WorkStealing(b *testing.B) {
	var imbalanceOff, imbalanceOn float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig3()
		imbalanceOff = res.Rows[0].MeanStddevWorkerStates
		imbalanceOn = res.Rows[1].MeanStddevWorkerStates
	}
	b.ReportMetric(imbalanceOff, "stddev-states/off")
	b.ReportMetric(imbalanceOn, "stddev-states/on")
}

// BenchmarkFig4TaskCoalescing regenerates Fig 4 (task group size sweep:
// match time and number of steals).
func BenchmarkFig4TaskCoalescing(b *testing.B) {
	var steals1, steals4 float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig4()
		for _, c := range res.Cells {
			if c.Collection == "PDBSv1" && c.Workers == 4 {
				switch c.GroupSize {
				case 1:
					steals1 = c.MeanSteals
				case 4:
					steals4 = c.MeanSteals
				}
			}
		}
	}
	b.ReportMetric(steals1, "steals/g1")
	b.ReportMetric(steals4, "steals/g4")
}

// BenchmarkTable2ParallelRI regenerates Table 2 (speedup of parallel parsge.RI
// on PDBSv1 over one worker).
func BenchmarkTable2ParallelRI(b *testing.B) {
	var work16 float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Table2()
		work16 = res.Rows[len(res.Rows)-1].WorkAvg
	}
	b.ReportMetric(work16, "work-speedup/16w")
}

// BenchmarkFig5Timeouts regenerates Fig 5 (timed-out instances on
// PDBSv1, parallel parsge.RI vs the parsge.RI 3.6 stand-in).
func BenchmarkFig5Timeouts(b *testing.B) {
	var t16 float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig5()
		t16 = float64(res.Rows[len(res.Rows)-1].TimeoutsParallel)
	}
	b.ReportMetric(t16, "timeouts/16w")
}

// BenchmarkFig6LongInstances regenerates Fig 6 (match time on long
// PDBSv1 instances vs worker count).
func BenchmarkFig6LongInstances(b *testing.B) {
	var speed16 float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig6()
		speed16 = res.Rows[len(res.Rows)-1].MeanWorkSpeed
	}
	b.ReportMetric(speed16, "work-speedup/16w")
}

// BenchmarkFig7Variants regenerates Fig 7 (search space and total time of
// parsge.RI-DS / parsge.RI-DS-SI / parsge.RI-DS-SI-FC on short instances).
func BenchmarkFig7Variants(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig7()
		var ds, fc float64
		for _, c := range res.Cells {
			if c.Collection == "GRAEMLIN32" {
				switch c.Variant {
				case "RI-DS":
					ds = c.MeanStates
				case "RI-DS-SI-FC":
					fc = c.MeanStates
				}
			}
		}
		if fc > 0 {
			ratio = ds / fc
		}
	}
	b.ReportMetric(ratio, "states-DS/FC")
}

// BenchmarkFig8SearchSpace regenerates Fig 8 (search space and states/sec
// on long samples).
func BenchmarkFig8SearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig8()
		if len(res.Cells) != 6 {
			b.Fatal("fig 8 incomplete")
		}
	}
}

// BenchmarkFig9TimeBreakdown regenerates Fig 9 (total/match/preprocessing
// time per variant; preprocessing is negligible).
func BenchmarkFig9TimeBreakdown(b *testing.B) {
	var preprocShare float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig9()
		var pre, total float64
		for _, c := range res.Cells {
			pre += c.PreprocTime
			total += c.TotalTime
		}
		if total > 0 {
			preprocShare = 100 * pre / total
		}
	}
	b.ReportMetric(preprocShare, "preproc-%")
}

// BenchmarkFig10ParallelRIDS regenerates Fig 10 (total time of parsge.RI-DS
// variants vs workers).
func BenchmarkFig10ParallelRIDS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig10()
		if len(res.Cells) == 0 {
			b.Fatal("fig 10 empty")
		}
	}
}

// BenchmarkFig11ShortLong regenerates Fig 11 (Fig 10 split short/long —
// same measurement, split columns).
func BenchmarkFig11ShortLong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig10()
		for _, c := range res.Cells {
			if c.MeanTotalShort < 0 || c.MeanTotalLong < 0 {
				b.Fatal("negative split means")
			}
		}
	}
}

// BenchmarkFig12SearchSpaceSplit regenerates Fig 12 (search space of
// parsge.RI-DS vs parsge.RI-DS-SI-FC, short/long split).
func BenchmarkFig12SearchSpaceSplit(b *testing.B) {
	var ratioLong float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Fig12()
		var ds, fc float64
		for _, c := range res.Cells {
			if c.Collection == "GRAEMLIN32" {
				switch c.Algorithm {
				case "RI-DS":
					ds = c.MeanStatesLong
				case "RI-DS-SI-FC":
					fc = c.MeanStatesLong
				}
			}
		}
		if fc > 0 {
			ratioLong = ds / fc
		}
	}
	b.ReportMetric(ratioLong, "long-states-DS/FC")
}

// BenchmarkTable3ParallelRIDSSIFC regenerates Table 3 (speedup of
// parallel parsge.RI-DS-SI-FC on GRAEMLIN32 and PPIS32).
func BenchmarkTable3ParallelRIDSSIFC(b *testing.B) {
	var work16 float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().Table3()
		rows := res[0].Rows
		work16 = rows[len(rows)-1].WorkAvg
	}
	b.ReportMetric(work16, "graemlin-work-speedup/16w")
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationStealBack compares stealing from the back (paper) vs
// the front of the victim's deque.
func BenchmarkAblationStealBack(b *testing.B) {
	var stealsBack, stealsFront float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().AblationStealEnd()
		stealsBack = res.Rows[0].MeanSteals
		stealsFront = res.Rows[1].MeanSteals
	}
	b.ReportMetric(stealsBack, "steals/back")
	b.ReportMetric(stealsFront, "steals/front")
}

// BenchmarkAblationCopyEager compares lazy mapping copies (only on
// steals) against eager per-task copies (the Cilk++ parsge.VF2 strategy).
func BenchmarkAblationCopyEager(b *testing.B) {
	var lazy, eager float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().AblationEagerCopy()
		lazy = res.Rows[0].MeanMatchTime
		eager = res.Rows[1].MeanMatchTime
	}
	b.ReportMetric(lazy*1e3, "ms/lazy")
	b.ReportMetric(eager*1e3, "ms/eager")
}

// BenchmarkAblationInitialDistribution compares round-robin initial work
// distribution against seeding everything on worker 0.
func BenchmarkAblationInitialDistribution(b *testing.B) {
	var rrSteals, w0Steals float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().AblationInitialDistribution()
		rrSteals = res.Rows[0].MeanSteals
		w0Steals = res.Rows[1].MeanSteals
	}
	b.ReportMetric(rrSteals, "steals/round-robin")
	b.ReportMetric(w0Steals, "steals/worker0")
}

// BenchmarkAblationArcConsistency compares domain pruning depth: none,
// single pass, fixpoint.
func BenchmarkAblationArcConsistency(b *testing.B) {
	var statesNone, statesFix float64
	for i := 0; i < b.N; i++ {
		res := benchSuite().AblationArcConsistency()
		statesNone = res.Rows[0].MeanStates
		statesFix = res.Rows[2].MeanStates
	}
	b.ReportMetric(statesNone, "states/noAC")
	b.ReportMetric(statesFix, "states/fixpoint")
}

// ---------------------------------------------------------- micro benches

// benchInstance is a fixed mid-size instance for engine micro-benchmarks.
func benchInstance() (*parsge.Graph, *parsge.Graph) {
	return testutil.RandomInstance(99, testutil.InstanceOptions{
		TargetNodes:  300,
		TargetEdges:  3000,
		PatternNodes: 6,
		NodeLabels:   4,
		Extract:      true,
	})
}

func benchAlgorithm(b *testing.B, alg parsge.Algorithm, workers int) {
	gp, gt := benchInstance()
	b.ReportAllocs()
	b.ResetTimer()
	var matches int64
	for i := 0; i < b.N; i++ {
		res, err := parsge.Enumerate(gp, gt, parsge.Options{Algorithm: alg, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		matches = res.Matches
	}
	b.ReportMetric(float64(matches), "matches")
}

func BenchmarkEnumerateRI(b *testing.B)       { benchAlgorithm(b, parsge.RI, 1) }
func BenchmarkEnumerateRIDS(b *testing.B)     { benchAlgorithm(b, parsge.RIDS, 1) }
func BenchmarkEnumerateRIDSSI(b *testing.B)   { benchAlgorithm(b, parsge.RIDSSI, 1) }
func BenchmarkEnumerateRIDSSIFC(b *testing.B) { benchAlgorithm(b, parsge.RIDSSIFC, 1) }
func BenchmarkEnumerateVF2(b *testing.B)      { benchAlgorithm(b, parsge.VF2, 1) }

func BenchmarkParallelWorkers2(b *testing.B)  { benchAlgorithm(b, parsge.RIDSSIFC, 2) }
func BenchmarkParallelWorkers4(b *testing.B)  { benchAlgorithm(b, parsge.RIDSSIFC, 4) }
func BenchmarkParallelWorkers8(b *testing.B)  { benchAlgorithm(b, parsge.RIDSSIFC, 8) }
func BenchmarkParallelWorkers16(b *testing.B) { benchAlgorithm(b, parsge.RIDSSIFC, 16) }
