// Tuning: explore the parallel runtime's knobs — worker count and task
// group size (coalescing) — on one hard instance, reproducing in
// miniature the paper's Fig 4 methodology. The paper's Fig 3 comparison
// with work stealing turned off is `sgebench -exp fig3`.
//
//	go run ./examples/tuning
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"parsge"
)

func main() {
	target, query := makeInstance()
	fmt.Printf("target: %d nodes, %d arcs; query: %d nodes, %d arcs\n",
		target.NumNodes(), target.NumEdges(), query.NumNodes(), query.NumEdges())

	// One session for the whole sweep: every configuration below reuses
	// the same target-side index and scratch pools.
	tgt, err := parsge.NewTarget(target, parsge.TargetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	base, err := tgt.Enumerate(context.Background(), query, parsge.Options{Algorithm: parsge.RIDS})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential RI-DS: %d matches, %d states, %v match time\n\n",
		base.Matches, base.States, base.MatchTime)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workers\tgroup\tmatch time\tsteals\tbalance speedup")
	for _, workers := range []int{2, 4, 8, 16} {
		for _, group := range []int{1, 4, 16} {
			report(w, tgt, query, base.Matches, parsge.Options{
				Algorithm:     parsge.RIDS,
				Workers:       workers,
				TaskGroupSize: group,
			})
		}
	}
	w.Flush()
	fmt.Println("\nbalance speedup = total states / max per-worker states: the")
	fmt.Println("hardware-independent upper bound on parallel speedup (perfect = workers).")
}

func report(w *tabwriter.Writer, tgt *parsge.Target, query *parsge.Graph, want int64, opts parsge.Options) {
	res, err := tgt.Enumerate(context.Background(), query, opts)
	if err != nil {
		log.Fatal(err)
	}
	if res.Matches != want {
		log.Fatalf("configuration %+v returned %d matches, want %d", opts, res.Matches, want)
	}
	var sum, max int64
	for _, s := range res.PerWorkerStates {
		sum += s
		if s > max {
			max = s
		}
	}
	balance := 1.0
	if max > 0 {
		balance = float64(sum) / float64(max)
	}
	fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%.2f\n",
		opts.Workers, opts.TaskGroupSize, res.MatchTime, res.Steals, balance)
}

// makeInstance builds a dense unlabeled-ish instance hard enough that
// scheduling effects are visible.
func makeInstance() (target, query *parsge.Graph) {
	const n, m = 400, 4800
	rng := rand.New(rand.NewSource(11))
	tb := parsge.NewBuilder(n, 2*m)
	for i := 0; i < n; i++ {
		tb.AddNode(parsge.Label(rng.Intn(4)))
	}
	seen := map[int64]bool{}
	for added := 0; added < m; {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)<<32 | int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		tb.AddEdgeBoth(u, v, parsge.NoLabel)
		added++
	}
	target = tb.MustBuild()

	// Query: a 6-node connected subgraph of the target.
	start := int32(rng.Intn(n))
	nodes := []int32{start}
	index := map[int32]int32{start: 0}
	for len(nodes) < 6 {
		v := nodes[rng.Intn(len(nodes))]
		adj := target.OutNeighbors(v)
		u := adj[rng.Intn(len(adj))]
		if _, ok := index[u]; !ok {
			index[u] = int32(len(nodes))
			nodes = append(nodes, u)
		}
	}
	qb := parsge.NewBuilder(len(nodes), 0)
	for _, tv := range nodes {
		qb.AddNode(target.NodeLabel(tv))
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i < j && target.HasEdge(a, b) {
				qb.AddEdgeBoth(int32(i), int32(j), parsge.NoLabel)
			}
		}
	}
	query = qb.MustBuild()
	return target, query
}
