package bench

import (
	"fmt"
	"text/tabwriter"
)

// tab starts an aligned table writer over the suite's output.
func (s *Suite) tab() *tabwriter.Writer {
	if s.Out == nil {
		return nil
	}
	return tabwriter.NewWriter(s.Out, 2, 4, 2, ' ', 0)
}

func row(w *tabwriter.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

func flush(w *tabwriter.Writer) {
	if w != nil {
		w.Flush()
	}
}

func (s *Suite) printTable1(res Table1Result) {
	s.printf("\n== Table 1: graph data collections (synthetic, scale %.3g) ==\n", s.Scale)
	w := s.tab()
	row(w, "collection\t|V| min/max\t|E| min/max\tdeg µ\tdeg σ\ttargets\tpatterns")
	for _, r := range res.Rows {
		row(w, "%s\t%d / %d\t%d / %d\t%.2f\t%.2f\t%d\t%d",
			r.Name, r.MinNodes, r.MaxNodes, r.MinEdges, r.MaxEdges,
			r.DegreeMean, r.DegreeSD, r.NumTargets, r.NumPatterns)
	}
	flush(w)
}

func (s *Suite) printFig3(res Fig3Result) {
	s.printf("\n== Fig 3: effects of work stealing (%d workers, PPIS32 sample) ==\n", res.Workers)
	w := s.tab()
	row(w, "configuration\tmean match time (s)\tmean stddev worker states\tmean work speedup")
	for _, r := range res.Rows {
		name := "no work stealing"
		if r.Stealing {
			name = "work stealing"
		}
		row(w, "%s\t%.6f\t%.1f\t%.2f", name, r.MeanMatchTime, r.MeanStddevWorkerStates, r.MeanWorkSpeedup)
	}
	flush(w)
}

func (s *Suite) printFig4(res Fig4Result) {
	s.printf("\n== Fig 4: task group size vs match time and steals ==\n")
	w := s.tab()
	row(w, "collection\tgroup\tworkers\tmean match time (s)\tmean steals")
	for _, c := range res.Cells {
		row(w, "%s\t%d\t%d\t%.6f\t%.1f", c.Collection, c.GroupSize, c.Workers, c.MeanMatchTime, c.MeanSteals)
	}
	flush(w)
}

func (s *Suite) printSpeedupTable(title string, t SpeedupTable) {
	metric := "match time"
	if t.UseTotal {
		metric = "total time"
	}
	s.printf("\n== %s: speedup of parallel %s on %s over 1 worker (%s) ==\n",
		title, t.Algorithm, t.Collection, metric)
	w := s.tab()
	row(w, "workers\tall avg\tall gmean\tall max\tshort avg\tshort gmean\tshort max\tlong avg\tlong gmean\tlong max\twork avg\twork max\ttimeouts")
	for _, r := range t.Rows {
		row(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d",
			r.Workers,
			r.All.Avg, r.All.GMean, r.All.Max,
			r.Short.Avg, r.Short.GMean, r.Short.Max,
			r.Long.Avg, r.Long.GMean, r.Long.Max,
			r.WorkAvg, r.WorkMax, r.Timeouts)
	}
	flush(w)
	s.printf("(work = states/max-worker-states: hardware-independent load-balance speedup; see DESIGN.md, \"Substitutions (vs the paper's testbed)\")\n")
}

func (s *Suite) printFig5(res Fig5Result) {
	s.printf("\n== Fig 5: timed-out instances on PDBSv1 (of %d) ==\n", res.Total)
	w := s.tab()
	row(w, "workers\tparallel RI\tRI 3.6*")
	for _, r := range res.Rows {
		row(w, "%d\t%d\t%d", r.Workers, r.TimeoutsParallel, r.TimeoutsBaseline)
	}
	flush(w)
	s.printf("(*) sequential stand-in with per-task mapping copies; see DESIGN.md substitutions\n")
}

func (s *Suite) printFig6(res Fig6Result) {
	s.printf("\n== Fig 6: match time on long PDBSv1 instances (%d instances) ==\n", res.Instances)
	w := s.tab()
	row(w, "workers\tmean match time (s)\tmean work speedup")
	for _, r := range res.Rows {
		row(w, "%d\t%.6f\t%.2f", r.Workers, r.MeanMatchTime, r.MeanWorkSpeed)
	}
	flush(w)
}

func (s *Suite) printVariantComparison(title string, res VariantComparison) {
	s.printf("\n== %s ==\n", title)
	w := s.tab()
	row(w, "collection\talgorithm\ttotal (s)\tmatch (s)\tpreproc (s)\tmean states\tσ states\tstates/s\ttimeout%%")
	for _, c := range res.Cells {
		row(w, "%s\t%s\t%.6f\t%.6f\t%.5f\t%.0f\t%.0f\t%.3g\t%.0f",
			c.Collection, c.Variant, c.TotalTime, c.MatchTime, c.PreprocTime,
			c.MeanStates, c.StddevStates, c.StatesPerSec, c.TimeoutPercent)
	}
	flush(w)
}

func (s *Suite) printFig10(res Fig10Result) {
	s.printf("\n== Fig 10/11: total time of RI-DS variants vs workers (all / short / long) ==\n")
	w := s.tab()
	row(w, "collection\talgorithm\tworkers\ttotal (s)\tshort (s)\tlong (s)")
	for _, c := range res.Cells {
		row(w, "%s\t%s\t%d\t%.6f\t%.6f\t%.6f",
			c.Collection, c.Algorithm, c.Workers, c.MeanTotal, c.MeanTotalShort, c.MeanTotalLong)
	}
	flush(w)
}

func (s *Suite) printFig12(res Fig12Result) {
	s.printf("\n== Fig 12: search space, RI-DS vs RI-DS-SI-FC (short / long) ==\n")
	w := s.tab()
	row(w, "collection\talgorithm\tmean states short\tmean states long")
	for _, c := range res.Cells {
		row(w, "%s\t%s\t%.0f\t%.0f", c.Collection, c.Algorithm, c.MeanStatesShort, c.MeanStatesLong)
	}
	flush(w)
}
