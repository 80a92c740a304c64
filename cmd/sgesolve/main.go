// Command sgesolve enumerates all subgraphs of a target graph isomorphic
// to a pattern graph, both given as GFF-style text files (see
// internal/graphio for the format).
//
// Usage:
//
//	sgesolve -pattern p.gff -target t.gff [-algo RI-DS-SI-FC] [-workers 8]
//	         [-semantics iso|induced|hom] [-group 4] [-timeout 180s]
//	         [-limit 0] [-print]
//	sgesolve -census 4 -target t.gff [-workers 8] [-timeout 180s] [-print]
//
// The second form runs a motif census instead of a pattern query: every
// connected k-subgraph of the target is counted per isomorphism class
// (no -pattern needed); -print emits each class representative as GFF.
//
// When a file contains several graph sections, the first is used; the
// -pattern-index / -target-index flags select others. Pattern and target
// share one label table so equal label strings match.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"parsge"
)

func main() {
	var (
		patternPath  = flag.String("pattern", "", "pattern graph file (required)")
		targetPath   = flag.String("target", "", "target graph file (required)")
		patternIndex = flag.Int("pattern-index", 0, "which section of the pattern file to use")
		targetIndex  = flag.Int("target-index", 0, "which section of the target file to use")
		algo         = flag.String("algo", "RI-DS-SI-FC", "algorithm: RI, RI-DS, RI-DS-SI, RI-DS-SI-FC, VF2, LAD or Auto")
		workers      = flag.Int("workers", 1, "parallel workers (1 = sequential)")
		group        = flag.Int("group", 4, "task group size for work stealing (1-16)")
		timeout      = flag.Duration("timeout", 0, "abort after this wall time (0 = none)")
		limit        = flag.Int64("limit", 0, "stop after this many matches (0 = all)")
		printMaps    = flag.Bool("print", false, "print every mapping (pattern node -> target node)")
		induced      = flag.Bool("induced", false, "shorthand for -semantics induced")
		semantics    = flag.String("semantics", "iso", "matching semantics: iso (non-induced subgraph isomorphism), induced, or hom (homomorphism)")
		profile      = flag.Bool("profile", false, "print the per-depth search profile")
		censusK      = flag.Int("census", 0, "run a motif census at this subgraph size instead of a pattern query (no -pattern needed)")
	)
	flag.Parse()
	if *targetPath == "" || (*censusK == 0 && *patternPath == "") {
		flag.Usage()
		os.Exit(2)
	}

	table := parsge.NewLabelTable()
	gt, err := loadGraph(*targetPath, *targetIndex, table)
	exitOn(err)
	if *censusK != 0 {
		runCensus(gt, table, *censusK, *workers, *timeout, *printMaps)
		return
	}
	gp, err := loadGraph(*patternPath, *patternIndex, table)
	exitOn(err)

	alg, err := parseAlgo(*algo)
	exitOn(err)
	sem, err := parseSemantics(*semantics)
	exitOn(err)
	if *induced {
		if sem == parsge.Homomorphism {
			exitOn(fmt.Errorf("-induced contradicts -semantics hom"))
		}
		sem = parsge.InducedIso
	}

	opts := parsge.Options{
		Algorithm:     alg,
		Workers:       *workers,
		TaskGroupSize: *group,
		Timeout:       *timeout,
		Limit:         *limit,
		Semantics:     sem,
	}
	var mu sync.Mutex
	if *printMaps {
		opts.Visit = func(m []int32) bool {
			mu.Lock()
			defer mu.Unlock()
			parts := make([]string, len(m))
			for vp, vt := range m {
				parts[vp] = fmt.Sprintf("%d->%d", vp, vt)
			}
			fmt.Println(strings.Join(parts, " "))
			return true
		}
	}

	// Session API: target-side state is built once, and Ctrl-C cancels
	// the search cleanly through the context (reported as a timeout).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	exitOn(err)
	res, err := tgt.Enumerate(ctx, gp, opts)
	exitOn(err)

	fmt.Printf("pattern: n=%d m=%d   target: n=%d m=%d\n",
		gp.NumNodes(), gp.NumEdges(), gt.NumNodes(), gt.NumEdges())
	fmt.Printf("algorithm: %s   workers: %d   semantics: %s\n", alg, *workers, sem)
	fmt.Printf("matches:   %d\n", res.Matches)
	fmt.Printf("states:    %d\n", res.States)
	fmt.Printf("preproc:   %v\n", res.PreprocTime)
	fmt.Printf("match:     %v\n", res.MatchTime)
	if *workers > 1 {
		fmt.Printf("steals:    %d\n", res.Steals)
	}
	if *profile && len(res.DepthStates) > 0 {
		fmt.Println("search profile (states per depth):")
		for d, c := range res.DepthStates {
			fmt.Printf("  depth %3d: %d\n", d, c)
		}
	}
	if res.Unsatisfiable {
		fmt.Println("note: preprocessing proved zero matches (empty domain)")
	}
	if res.TimedOut {
		fmt.Println("note: TIMED OUT — match count is a lower bound")
		os.Exit(3)
	}
}

// runCensus is the -census mode: count every connected k-subgraph of
// the target per isomorphism class and print the class table.
func runCensus(gt *parsge.Graph, table *parsge.LabelTable, k, workers int, timeout time.Duration, printReps bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tgt, err := parsge.NewTarget(gt, parsge.TargetOptions{})
	exitOn(err)
	res, err := tgt.Census(ctx, parsge.CensusOptions{K: k, Workers: workers, Timeout: timeout})
	exitOn(err)

	fmt.Printf("target: n=%d m=%d   census: k=%d   workers: %d\n",
		gt.NumNodes(), gt.NumEdges(), k, workers)
	fmt.Printf("subgraphs: %d in %d classes\n", res.Subgraphs, len(res.Classes))
	fmt.Printf("memo:      %d hits / %d misses\n", res.MemoHits, res.MemoMisses)
	fmt.Printf("elapsed:   %v\n", res.Duration)
	fmt.Printf("%-18s %12s %6s %6s\n", "class", "count", "nodes", "edges")
	for _, c := range res.Classes {
		fmt.Printf("%016x   %12d %6d %6d\n", c.Hash, c.Count, c.Pattern.NumNodes(), c.Pattern.NumEdges())
	}
	if printReps {
		for i, c := range res.Classes {
			fmt.Println()
			exitOn(parsge.WriteGraph(os.Stdout, fmt.Sprintf("motif-%d", i), c.Pattern, table))
		}
	}
	if res.TimedOut {
		fmt.Println("note: TIMED OUT — counts are lower bounds")
		os.Exit(3)
	}
}

func loadGraph(path string, index int, table *parsge.LabelTable) (*parsge.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gs, err := parsge.ReadGraphs(f, table)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if index < 0 || index >= len(gs) {
		return nil, fmt.Errorf("%s: has %d sections, index %d out of range", path, len(gs), index)
	}
	return gs[index].Graph, nil
}

func parseAlgo(s string) (parsge.Algorithm, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "_", "-")) {
	case "RI":
		return parsge.RI, nil
	case "RI-DS", "RIDS":
		return parsge.RIDS, nil
	case "RI-DS-SI", "RIDSSI":
		return parsge.RIDSSI, nil
	case "RI-DS-SI-FC", "RIDSSIFC":
		return parsge.RIDSSIFC, nil
	case "VF2":
		return parsge.VF2, nil
	case "LAD":
		return parsge.LAD, nil
	case "AUTO":
		return parsge.Auto, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

func parseSemantics(s string) (parsge.Semantics, error) {
	switch strings.ToLower(s) {
	case "iso", "subgraph-iso", "mono", "":
		return parsge.SubgraphIso, nil
	case "induced", "induced-iso":
		return parsge.InducedIso, nil
	case "hom", "homomorphism":
		return parsge.Homomorphism, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q (want iso, induced, or hom)", s)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgesolve:", err)
		os.Exit(1)
	}
}
