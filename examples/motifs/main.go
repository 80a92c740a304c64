// Motifs: count classic directed three- and four-node motifs in a
// synthetic regulatory network — the network-analysis application family
// the paper cites (motif discovery, §1).
//
// Each motif is a small unlabeled directed pattern; Enumerate counts its
// embeddings, and the counts are normalized by the motif's automorphism
// group size to report *occurrences* (vertex sets) rather than ordered
// embeddings.
//
//	go run ./examples/motifs
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
	target := buildRegulatoryNetwork(800, 3200, 7)
	fmt.Printf("network: %d genes, %d directed regulations\n\n",
		target.NumNodes(), target.NumEdges())

	// A motif census is one target queried with many small patterns:
	// the session computes its target-side state once and reuses it for
	// every motif.
	tgt, err := parsge.NewTarget(target, parsge.TargetOptions{})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "motif\tembeddings\tautomorphisms\toccurrences\tstates")
	for _, m := range motifs() {
		res, err := tgt.Enumerate(context.Background(), m.pattern, parsge.Options{
			Algorithm: parsge.RI, // unlabeled sparse queries: plain RI
		})
		if err != nil {
			log.Fatal(err)
		}
		autos, err := parsge.Automorphisms(m.pattern)
		if err != nil {
			log.Fatal(err)
		}
		if autos != int64(m.autos) {
			log.Fatalf("%s: computed %d automorphisms, textbook says %d", m.name, autos, m.autos)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
			m.name, res.Matches, autos, res.Matches/autos, res.States)
	}
	w.Flush()
}

type motif struct {
	name    string
	pattern *parsge.Graph
	autos   int // size of the automorphism group (embeddings per occurrence)
}

// motifs returns the classic catalog: feed-forward loop, 3-cycle, bifan
// and the 4-node feedback cycle.
func motifs() []motif {
	ffl := parsge.NewBuilder(3, 3) // a→b, a→c, b→c
	a := ffl.AddNode(parsge.NoLabel)
	b := ffl.AddNode(parsge.NoLabel)
	c := ffl.AddNode(parsge.NoLabel)
	ffl.AddEdge(a, b, parsge.NoLabel)
	ffl.AddEdge(a, c, parsge.NoLabel)
	ffl.AddEdge(b, c, parsge.NoLabel)

	cyc3 := parsge.NewBuilder(3, 3) // a→b→c→a
	a = cyc3.AddNode(parsge.NoLabel)
	b = cyc3.AddNode(parsge.NoLabel)
	c = cyc3.AddNode(parsge.NoLabel)
	cyc3.AddEdge(a, b, parsge.NoLabel)
	cyc3.AddEdge(b, c, parsge.NoLabel)
	cyc3.AddEdge(c, a, parsge.NoLabel)

	bifan := parsge.NewBuilder(4, 4) // a→c, a→d, b→c, b→d
	a = bifan.AddNode(parsge.NoLabel)
	b = bifan.AddNode(parsge.NoLabel)
	c = bifan.AddNode(parsge.NoLabel)
	d := bifan.AddNode(parsge.NoLabel)
	bifan.AddEdge(a, c, parsge.NoLabel)
	bifan.AddEdge(a, d, parsge.NoLabel)
	bifan.AddEdge(b, c, parsge.NoLabel)
	bifan.AddEdge(b, d, parsge.NoLabel)

	cyc4 := parsge.NewBuilder(4, 4) // a→b→c→d→a
	a = cyc4.AddNode(parsge.NoLabel)
	b = cyc4.AddNode(parsge.NoLabel)
	c = cyc4.AddNode(parsge.NoLabel)
	d = cyc4.AddNode(parsge.NoLabel)
	cyc4.AddEdge(a, b, parsge.NoLabel)
	cyc4.AddEdge(b, c, parsge.NoLabel)
	cyc4.AddEdge(c, d, parsge.NoLabel)
	cyc4.AddEdge(d, a, parsge.NoLabel)

	return []motif{
		{"feed-forward loop", ffl.MustBuild(), 1},
		{"3-cycle", cyc3.MustBuild(), 3},
		{"bifan", bifan.MustBuild(), 4},
		{"4-cycle", cyc4.MustBuild(), 4},
	}
}

// buildRegulatoryNetwork samples a directed scale-free-ish graph via
// preferential attachment with extra random regulations.
func buildRegulatoryNetwork(n, m int, seed int64) *parsge.Graph {
	rng := rand.New(rand.NewSource(seed))
	bld := parsge.NewBuilder(n, m)
	bld.AddNodes(n)
	// Endpoint pool for preferential attachment: every edge endpoint is
	// appended, so high-degree nodes attract more edges.
	pool := make([]int32, 0, 2*m)
	for i := 0; i < n; i++ {
		pool = append(pool, int32(i))
	}
	seen := map[int64]bool{}
	for added := 0; added < m; {
		u := pool[rng.Intn(len(pool))]
		v := pool[rng.Intn(len(pool))]
		if u == v {
			continue
		}
		key := int64(u)<<32 | int64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		bld.AddEdge(u, v, parsge.NoLabel)
		pool = append(pool, u, v)
		added++
	}
	return bld.MustBuild()
}
