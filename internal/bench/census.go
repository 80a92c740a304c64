package bench

// The census experiment measures the motif-census subsystem
// (internal/census) the way the paper's speedup tables measure the
// engines: a sequential ESU walk against the parallel root-split on the
// dense PPIS32 collection. As everywhere in the harness two speedups
// are reported — wall-clock (meaningless on a host with fewer cores
// than workers) and the hardware-independent work-division speedup
// totalSubgraphs/maxPerWorkerSubgraphs, which the acceptance test
// bounds from below.
//
// A census cell runs to completion under Suite.Ctx and ignores
// Suite.Timeout: the work-division speedup does not depend on the
// hardware, so a slow host (or the race detector) must lengthen the
// experiment, not empty it. Cancelling the context (Ctrl-C in sgebench)
// still stops it; the cell that was cut is reported as truncated.

import (
	"context"
	"fmt"
	"time"

	"parsge"
)

// CensusCell is one target's sequential-vs-parallel census measurement.
type CensusCell struct {
	Collection   string
	Nodes, Edges int
	K            int
	// Subgraphs and Classes come from the sequential run; Consistent
	// reports the parallel run reproduced both exactly.
	Subgraphs  int64
	Classes    int
	Consistent bool
	// SeqMS and ParMS are the two wall times.
	SeqMS, ParMS float64
	// WallSpeedup is SeqMS/ParMS; WorkSpeedup is the load-balance bound
	// totalSubgraphs/maxPerWorkerSubgraphs of the parallel run.
	WallSpeedup, WorkSpeedup float64
	// MemoHits and MemoMisses describe the parallel run's canonical
	// memo.
	MemoHits, MemoMisses int64
	// truncated marks a cell whose census the context cancelled: its
	// counts are lower bounds and it is left out of the means.
	truncated bool
}

// CensusBenchResult is the census experiment outcome.
type CensusBenchResult struct {
	Cells   []CensusCell
	Workers int
	// MeanWallSpeedup and MeanWorkSpeedup aggregate the complete cells.
	MeanWallSpeedup, MeanWorkSpeedup float64
}

// censusTargets is how many PPIS32 targets the experiment measures.
const censusTargets = 3

// CensusThroughput measures sequential vs parallel census at k=4 on the
// PPIS32 targets (the paper's dense protein-interaction collection).
func (s *Suite) CensusThroughput() CensusBenchResult {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background() //sgelint:ignore ctxbackground bench harness default when Suite.Ctx is unset; cmd/sgebench passes a SIGINT-bound ctx
	}
	const k = 4
	workers := 1
	for _, w := range s.Workers {
		if w > workers {
			workers = w
		}
	}
	res := CensusBenchResult{Workers: workers}

	targets := s.collection("PPIS32").Targets
	if len(targets) > censusTargets {
		targets = targets[:censusTargets]
	}
	var wallSum, workSum float64
	complete := 0
	for _, g := range targets {
		if ctx.Err() != nil {
			break
		}
		tgt, err := parsge.NewTarget(g, parsge.TargetOptions{})
		if err != nil {
			continue
		}
		start := time.Now()
		seq, err := tgt.Census(ctx, parsge.CensusOptions{K: k, Workers: 1})
		seqMS := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			continue
		}
		start = time.Now()
		par, err := tgt.Census(ctx, parsge.CensusOptions{K: k, Workers: workers})
		parMS := float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			continue
		}

		cell := CensusCell{
			Collection: "PPIS32",
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			K:          k,
			Subgraphs:  seq.Subgraphs,
			Classes:    len(seq.Classes),
			Consistent: censusEqual(seq, par),
			SeqMS:      seqMS,
			ParMS:      parMS,
			MemoHits:   par.MemoHits,
			MemoMisses: par.MemoMisses,
			truncated:  seq.TimedOut || par.TimedOut,
		}
		if parMS > 0 {
			cell.WallSpeedup = seqMS / parMS
		}
		cell.WorkSpeedup = censusWorkSpeedup(par)
		if !cell.truncated {
			wallSum += cell.WallSpeedup
			workSum += cell.WorkSpeedup
			complete++
		}
		res.Cells = append(res.Cells, cell)
	}
	if complete > 0 {
		res.MeanWallSpeedup = wallSum / float64(complete)
		res.MeanWorkSpeedup = workSum / float64(complete)
	}

	s.printCensus(res)
	s.csvCensus(res)
	return res
}

// censusEqual reports two census results agree class by class.
func censusEqual(a, b parsge.CensusResult) bool {
	if a.Subgraphs != b.Subgraphs || len(a.Classes) != len(b.Classes) {
		return false
	}
	m := make(map[string]int64, len(a.Classes))
	for _, c := range a.Classes {
		m[string(c.Encoding)] = c.Count
	}
	for _, c := range b.Classes {
		if m[string(c.Encoding)] != c.Count {
			return false
		}
	}
	return true
}

// censusWorkSpeedup is totalSubgraphs/maxPerWorkerSubgraphs — the
// census counterpart of Record.WorkSpeedup.
func censusWorkSpeedup(res parsge.CensusResult) float64 {
	if len(res.PerWorkerSubgraphs) == 0 {
		return 1
	}
	var max, sum int64
	for _, c := range res.PerWorkerSubgraphs {
		sum += c
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(max)
}

func (s *Suite) printCensus(res CensusBenchResult) {
	s.printf("\n== Census: sequential vs %d-worker ESU at k=4 ==\n", res.Workers)
	w := s.tab()
	row(w, "collection\tn\tm\tsubgraphs\tclasses\tseq ms\tpar ms\twall\twork\tmemo hit%%\tok\ttruncated")
	complete := 0
	for _, c := range res.Cells {
		if !c.truncated {
			complete++
		}
		hitPct := 0.0
		if lookups := c.MemoHits + c.MemoMisses; lookups > 0 {
			hitPct = 100 * float64(c.MemoHits) / float64(lookups)
		}
		row(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.2fx\t%.2fx\t%.1f\t%v\t%v",
			c.Collection, c.Nodes, c.Edges, c.Subgraphs, c.Classes,
			c.SeqMS, c.ParMS, c.WallSpeedup, c.WorkSpeedup, hitPct, c.Consistent, c.truncated)
	}
	flush(w)
	s.printf("mean wall speedup %.2fx, mean work speedup %.2fx over %d complete of %d targets\n",
		res.MeanWallSpeedup, res.MeanWorkSpeedup, complete, len(res.Cells))
}

func (s *Suite) csvCensus(res CensusBenchResult) {
	rows := make([][]string, 0, len(res.Cells))
	for _, c := range res.Cells {
		rows = append(rows, []string{
			c.Collection, fmt.Sprint(c.Nodes), fmt.Sprint(c.Edges), fmt.Sprint(c.K),
			fmt.Sprint(c.Subgraphs), fmt.Sprint(c.Classes),
			fmt.Sprintf("%.4f", c.SeqMS), fmt.Sprintf("%.4f", c.ParMS),
			fmt.Sprintf("%.3f", c.WallSpeedup), fmt.Sprintf("%.3f", c.WorkSpeedup),
			fmt.Sprint(c.MemoHits), fmt.Sprint(c.MemoMisses),
			fmt.Sprint(c.Consistent), fmt.Sprint(c.truncated),
		})
	}
	s.csvOut("census", []string{
		"collection", "nodes", "edges", "k", "subgraphs", "classes",
		"seq_ms", "par_ms", "wall_speedup", "work_speedup",
		"memo_hits", "memo_misses", "consistent", "truncated",
	}, rows)
}
