// Command sgebench regenerates the tables and figures of the paper's
// evaluation (Kimmig et al. §5) on the synthetic data collections.
//
// Usage:
//
//	sgebench -exp all                     # every table, figure, ablation
//	sgebench -exp table2 -scale 0.05      # just Table 2, bigger instances
//	sgebench -exp fig4,fig3               # a comma-separated subset
//
// The -scale flag sizes the synthetic collections relative to the
// paper's Table 1 (1.0 reproduces the original node counts; expect very
// long runs). The per-instance -timeout mirrors the paper's 180 s budget
// proportionally. Each speedup table reports both wall-clock speedup and
// the hardware-independent work-division speedup (see DESIGN.md,
// "Substitutions (vs the paper's testbed)").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"parsge/internal/bench"
)

var experiments = []string{
	"table1", "fig3", "fig4", "table2", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table3",
	"ablations", "census",
}

// ablations maps the -ablation names to their suite methods, so a
// single ablation can be (re)run without paying for all of them.
var ablations = map[string]func(*bench.Suite) bench.AblationResult{
	"stealend":  (*bench.Suite).AblationStealEnd,
	"eagercopy": (*bench.Suite).AblationEagerCopy,
	"initdist":  (*bench.Suite).AblationInitialDistribution,
	"ac":        (*bench.Suite).AblationArcConsistency,
	"ordering":  (*bench.Suite).AblationOrdering,
	"pruning":   (*bench.Suite).AblationPruningFilters,
	"adaptive":  (*bench.Suite).AblationAdaptiveSchedule,
	"admission": (*bench.Suite).AblationAdmission,
}

func ablationNames() []string {
	names := make([]string, 0, len(ablations))
	for n := range ablations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// splitNames splits a comma-separated flag value, dropping empty parts.
func splitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiments to run: all, or comma-separated subset of "+strings.Join(experiments, ","))
		ablation = flag.String("ablation", "", "run a single named ablation instead of -exp: one of "+strings.Join(ablationNames(), ","))

		loadgen         = flag.String("loadgen", "", "replay a mixed query workload against a running sgeserve at this base URL instead of -exp")
		loadgenTarget   = flag.String("loadgen-target", "", "target graph file the server serves (patterns are extracted from it)")
		loadgenClients  = flag.Int("clients", 8, "concurrent loadgen clients")
		loadgenDuration = flag.Duration("duration", 10*time.Second, "loadgen run length")
		loadgenPatterns = flag.Int("patterns", 12, "distinct patterns in the loadgen pool")
		censusFrac      = flag.Float64("census-frac", 0, "fraction of loadgen requests issued as /census (0..1)")
		explosiveFrac   = flag.Float64("explosive-frac", 0, "fraction of loadgen requests issued as predicted-explosive star probes under hom (0..1)")
		loadgenTargets  = flag.String("loadgen-targets", "", "comma-separated server target names to round-robin the workload across (empty = the -loadgen-target file's first section, named as sgeserve names it)")
		updateTarget    = flag.String("update-target", "", "target name that receives a steady stream of edge-update batches during the run")
		scale           = flag.Float64("scale", 0.03, "dataset scale relative to the paper's Table 1")
		seed            = flag.Int64("seed", 20170525, "generation and scheduling seed")
		timeout         = flag.Duration("timeout", 20*time.Second, "per-instance time budget (paper: 180s at scale 1.0)")
		long            = flag.Duration("long", 50*time.Millisecond, "short/long split threshold (paper: 1s at scale 1.0)")
		maxInst         = flag.Int("max", 60, "max instances per experiment (0 = all)")
		workers         = flag.String("workers", "1,2,4,8,16", "comma-separated worker sweep")
		csvDir          = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
	)
	flag.Parse()

	if *loadgen != "" {
		exitOn(runLoadgen(loadgenConfig{
			URL:           strings.TrimRight(*loadgen, "/"),
			TargetFile:    *loadgenTarget,
			Clients:       *loadgenClients,
			Duration:      *loadgenDuration,
			Patterns:      *loadgenPatterns,
			Seed:          *seed,
			CensusFrac:    *censusFrac,
			ExplosiveFrac: *explosiveFrac,
			Targets:       splitNames(*loadgenTargets),
			UpdateTarget:  *updateTarget,
		}))
		return
	}

	ws, err := parseWorkers(*workers)
	exitOn(err)

	// Ctrl-C aborts the in-flight instance through the suite's context;
	// already-collected rows are simply abandoned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s := (&bench.Suite{
		Ctx:           ctx,
		Scale:         *scale,
		Seed:          *seed,
		Timeout:       *timeout,
		LongThreshold: *long,
		Workers:       ws,
		MaxInstances:  *maxInst,
		Out:           os.Stdout,
		CSVDir:        *csvDir,
	}).Defaults()

	if *ablation != "" {
		run, ok := ablations[strings.TrimSpace(strings.ToLower(*ablation))]
		if !ok {
			exitOn(fmt.Errorf("unknown ablation %q (want one of %s)", *ablation, strings.Join(ablationNames(), ", ")))
		}
		start := time.Now()
		fmt.Printf("sgebench: ablation=%s scale=%.3g seed=%d timeout=%v\n", *ablation, *scale, *seed, *timeout)
		run(s)
		fmt.Printf("\nsgebench: done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	selected := map[string]bool{}
	if *exp == "all" {
		for _, e := range experiments {
			selected[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if e == "" {
				continue
			}
			if !contains(experiments, e) {
				exitOn(fmt.Errorf("unknown experiment %q (want one of %s)", e, strings.Join(experiments, ", ")))
			}
			selected[e] = true
		}
	}

	start := time.Now()
	fmt.Printf("sgebench: scale=%.3g seed=%d timeout=%v long-threshold=%v workers=%v\n",
		*scale, *seed, *timeout, *long, ws)

	if selected["table1"] {
		s.Table1()
	}
	if selected["fig3"] {
		s.Fig3()
	}
	if selected["fig4"] {
		s.Fig4()
	}
	if selected["table2"] {
		s.Table2()
	}
	if selected["fig5"] {
		s.Fig5()
	}
	if selected["fig6"] {
		s.Fig6()
	}
	if selected["fig7"] {
		s.Fig7()
	}
	if selected["fig8"] {
		s.Fig8()
	}
	if selected["fig9"] {
		s.Fig9()
	}
	// Fig 10 and Fig 11 share one measurement (11 is 10 split
	// short/long); run it if either was requested.
	if selected["fig10"] || selected["fig11"] {
		s.Fig10()
	}
	if selected["fig12"] {
		s.Fig12()
	}
	if selected["table3"] {
		s.Table3()
	}
	if selected["ablations"] {
		s.Ablations()
	}
	if selected["census"] {
		s.CensusThroughput()
	}

	fmt.Printf("\nsgebench: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty worker list")
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgebench:", err)
		os.Exit(1)
	}
}
