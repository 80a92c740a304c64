package parsge_test

import (
	"context"
	"fmt"

	"parsge"
)

// Example enumerates a labeled triangle pattern in a small target graph.
func Example() {
	// Pattern: directed triangle with node labels 1→2→3.
	pb := parsge.NewBuilder(3, 3)
	a := pb.AddNode(1)
	b := pb.AddNode(2)
	c := pb.AddNode(3)
	pb.AddEdge(a, b, parsge.NoLabel)
	pb.AddEdge(b, c, parsge.NoLabel)
	pb.AddEdge(c, a, parsge.NoLabel)
	pattern := pb.MustBuild()

	// Target: two such triangles.
	tb := parsge.NewBuilder(6, 6)
	for i := 0; i < 2; i++ {
		x := tb.AddNode(1)
		y := tb.AddNode(2)
		z := tb.AddNode(3)
		tb.AddEdge(x, y, parsge.NoLabel)
		tb.AddEdge(y, z, parsge.NoLabel)
		tb.AddEdge(z, x, parsge.NoLabel)
	}
	target := tb.MustBuild()

	res, err := parsge.Enumerate(pattern, target, parsge.Options{Algorithm: parsge.RIDSSIFC})
	if err != nil {
		panic(err)
	}
	fmt.Println("matches:", res.Matches)
	// Output: matches: 2
}

// ExampleOptions_visit collects every embedding as a slice of mappings.
// Visit's slice is reused, so each mapping is copied; with Workers > 1
// Visit runs concurrently and the append would need a mutex.
func ExampleOptions_visit() {
	pb := parsge.NewBuilder(2, 1)
	pb.AddNodes(2)
	pb.AddEdge(0, 1, parsge.NoLabel)
	pattern := pb.MustBuild()

	tb := parsge.NewBuilder(3, 2)
	tb.AddNodes(3)
	tb.AddEdge(0, 1, parsge.NoLabel)
	tb.AddEdge(1, 2, parsge.NoLabel)
	target := tb.MustBuild()

	var maps [][]int32
	visit := func(m []int32) bool {
		maps = append(maps, append([]int32(nil), m...))
		return true
	}
	if _, err := parsge.Enumerate(pattern, target, parsge.Options{Visit: visit}); err != nil {
		panic(err)
	}
	fmt.Println("embeddings:", len(maps))
	// Output: embeddings: 2
}

// ExampleNewTarget answers several pattern queries against one target
// through a session: target-side state is preprocessed once, and every
// query takes a context.
func ExampleNewTarget() {
	// Target: a directed 5-cycle.
	tb := parsge.NewBuilder(5, 5)
	tb.AddNodes(5)
	for i := int32(0); i < 5; i++ {
		tb.AddEdge(i, (i+1)%5, parsge.NoLabel)
	}
	tgt, err := parsge.NewTarget(tb.MustBuild(), parsge.TargetOptions{})
	if err != nil {
		panic(err)
	}

	// Patterns: a directed path of length 1 and one of length 2.
	patterns := make([]*parsge.Graph, 2)
	for k := range patterns {
		pb := parsge.NewBuilder(k+2, k+1)
		pb.AddNodes(k + 2)
		for i := int32(0); i <= int32(k); i++ {
			pb.AddEdge(i, i+1, parsge.NoLabel)
		}
		patterns[k] = pb.MustBuild()
	}

	for i, gp := range patterns {
		res, err := tgt.Enumerate(context.Background(), gp, parsge.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("path-%d embeddings: %d\n", i+1, res.Matches)
	}
	// Output:
	// path-1 embeddings: 5
	// path-2 embeddings: 5
}
