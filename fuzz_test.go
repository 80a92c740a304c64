package parsge

import (
	"context"
	"testing"

	"parsge/internal/domain"
	"parsge/internal/testutil"
)

// decodeFuzzPair decodes fuzzer bytes into a small (pattern, target,
// semantics) triple. The layout is positional and total — missing bytes
// read as zero, so every input decodes to a valid instance and the
// fuzzer's energy goes into graph shapes rather than parser errors:
//
//	[0]              semantics (1 + mod 3: SubgraphIso, InducedIso, Homomorphism)
//	[1] [2]          pattern / target node counts (1–4 / 1–6)
//	[3..]            np pattern node labels (mod 3)
//	[.]              pattern edge count (mod 11)
//	2 bytes per edge u = b1 mod np, v = b2 mod np, label = (b1>>6) & 1
//	[.]              nt target node labels (mod 3)
//	[.]              target edge count (mod 15)
//	2 bytes per edge as above
//
// Self-loops, parallel edges and disconnected patterns all arise
// naturally from the modular arithmetic — exactly the corner cases the
// engines must count identically.
func decodeFuzzPair(data []byte) (gp, gt *Graph, sem Semantics) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	// 1 + mod 3 keeps byte values 0/1/2 mapping to iso/induced/hom like
	// the pre-sentinel encoding, so the committed corpus keeps meaning.
	sem = Semantics(1 + next()%3)
	np := 1 + int(next())%4
	nt := 1 + int(next())%6

	build := func(n, maxEdges int) *Graph {
		b := NewBuilder(n, 0)
		for i := 0; i < n; i++ {
			b.AddNode(Label(next() % 3))
		}
		m := int(next()) % maxEdges
		for i := 0; i < m; i++ {
			e1, e2 := next(), next()
			b.AddEdge(int32(int(e1)%n), int32(int(e2)%n), Label((e1>>6)&1))
		}
		return b.MustBuild()
	}
	gp = build(np, 11)
	gt = build(nt, 15)
	return gp, gt, sem
}

// FuzzCrossEngine decodes fuzzer bytes into a (pattern, target,
// semantics) instance and asserts that every engine configuration agrees
// with the brute-force oracle — the differential test of
// TestCrossEngineDifferential, driven by coverage-guided inputs instead
// of seeds. The committed corpus under testdata/fuzz/FuzzCrossEngine
// plus the f.Add seeds below pin known-tricky shapes; in a plain
// `go test` run the seeds execute as regression tests.
func FuzzCrossEngine(f *testing.F) {
	// Undirected triangle pattern (no self-loops) in K4, per semantics.
	triangle := []byte{
		0, 2, 3, // sem, np=3, nt=4
		0, 0, 0, // pattern labels
		6, 0, 1, 1, 0, 1, 2, 2, 1, 2, 0, 0, 2, // 6 arcs = undirected C3
		0, 0, 0, 0, // target labels
		12, // 12 arcs = undirected K4
		0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 1, 2, 2, 1, 1, 3, 3, 1, 2, 3, 3, 2,
	}
	for sem := byte(0); sem < 3; sem++ {
		seed := append([]byte(nil), triangle...)
		seed[0] = sem
		f.Add(seed)
	}
	// Star pattern (center 0, three leaves) in a 5-node star target.
	f.Add([]byte{
		2, 3, 4,
		0, 0, 0, 0,
		6, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0,
		0, 0, 0, 0, 0,
		8, 0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 0, 4, 4, 0,
	})
	// Disconnected pattern (two isolated labeled nodes) in a labeled path.
	f.Add([]byte{1, 1, 2, 1, 2, 0, 1, 2, 0, 2, 0, 1, 1, 0})
	// Self-loops and parallel edges on both sides (byte 64 flips the
	// edge-label bit): pattern {0→0, 0→1 twice with different labels},
	// target {both self-loops, 0→1 twice}.
	f.Add([]byte{0, 1, 1, 0, 0, 3, 0, 0, 64, 1, 0, 1, 0, 0, 4, 0, 0, 1, 1, 64, 1, 0, 1})
	// Pattern path P3 into a single looped node: zero under the
	// injective semantics, nonzero as a homomorphism.
	f.Add([]byte{2, 3, 0, 0, 0, 0, 0, 2, 0, 1, 1, 2, 0, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		gp, gt, sem := decodeFuzzPair(data)
		want := testutil.BruteCountSem(gp, gt, sem)
		for _, ec := range engineConfigs {
			opts := ec.opts
			opts.Semantics = sem
			got, err := Count(gp, gt, opts)
			if err != nil {
				t.Fatalf("%s under %v: %v\npattern=%v target=%v", ec.name, sem, err, gp.Edges(), gt.Edges())
			}
			if got != want {
				t.Fatalf("%s under %v = %d, oracle = %d\npattern(n=%d)=%v\ntarget(n=%d)=%v",
					ec.name, sem, got, want, gp.NumNodes(), gp.Edges(), gt.NumNodes(), gt.Edges())
			}
		}
	})
}

// decodeContainmentPair decodes fuzzer bytes into a (pattern, target)
// pair for FuzzContainment. The layout mirrors decodeFuzzPair but scales
// past the oracle-bound caps: up to 4 pattern and 18 target nodes with
// denser edge budgets — instances far too large for the brute-force
// oracle (O(nt^np) with no pruning) yet cheap for the engines:
//
//	[0] [1]          pattern / target node counts (1–4 / 1–18)
//	[2..]            np pattern node labels (mod 4)
//	[.]              pattern edge count (mod 13)
//	2 bytes per edge u = b1 mod np, v = b2 mod np, label = (b1>>6) & 1
//	[.]              nt target node labels (mod 4)
//	[.]              target edge count (mod 61)
//	2 bytes per edge as above
func decodeContainmentPair(data []byte) (gp, gt *Graph) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	np := 1 + int(next())%4
	nt := 1 + int(next())%18

	build := func(n, maxEdges int) *Graph {
		b := NewBuilder(n, 0)
		for i := 0; i < n; i++ {
			b.AddNode(Label(next() % 4))
		}
		m := int(next()) % maxEdges
		for i := 0; i < m; i++ {
			e1, e2 := next(), next()
			b.AddEdge(int32(int(e1)%n), int32(int(e2)%n), Label((e1>>6)&1))
		}
		return b.MustBuild()
	}
	gp = build(np, 13)
	gt = build(nt, 61)
	return gp, gt
}

// FuzzContainment checks the definitional containment chain
// induced ≤ iso ≤ hom on instances well past the 4/6-node cap of the
// oracle-backed FuzzCrossEngine: no brute-force reference is needed,
// because the chain is an invariant of the definitions themselves, and
// cross-checking two independent engine families (RI-DS-SI-FC and LAD)
// per semantics supplies the equality oracle. A pruning bug that loses
// or invents matches in just one semantics breaks the chain or the
// cross-check. Seeds and the committed corpus under
// testdata/fuzz/FuzzContainment pin known-tricky shapes.
func FuzzContainment(f *testing.F) {
	// Undirected C4 in a 12-node target: a C6 ring plus a hub node 6
	// joined to ring nodes 0, 1 and 2 (18 arcs), leaving nodes 7–11
	// isolated.
	f.Add([]byte{
		3, 11,
		0, 0, 0, 0,
		8, 0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 3, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		18, 0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 3, 4, 4, 3, 4, 5, 5, 4,
		5, 0, 0, 5, 0, 6, 6, 0, 1, 6, 6, 1, 2, 6, 6, 2,
	})
	// Self-loops and parallel edges on a mid-size target.
	f.Add([]byte{1, 9, 2, 0, 5, 0, 0, 64, 1, 0, 1, 1, 0, 2, 2, 2, 1, 0, 1, 2, 0,
		9, 0, 0, 1, 1, 64, 1, 0, 1, 3, 3, 2, 3, 3, 2})
	// A pattern larger than small targets under hom (nt=2).
	f.Add([]byte{3, 1, 0, 0, 0, 0, 6, 0, 1, 1, 0, 1, 2, 2, 1, 2, 3, 3, 2, 0, 0, 3, 0, 1, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		gp, gt := decodeContainmentPair(data)
		// The last input byte steers the two engines to *different*
		// points of the schedule space (schedule, AC depth, filter
		// toggles) and of the kernel space (bits 4–5 and 6–7 pick the
		// candidate kernel per engine independently), so the cross-check
		// also differentially validates the adaptive scheduler and the
		// bitset kernel layer: a plan- or kernel-dependent count breaks
		// the equality below even when it breaks it in only one engine.
		var knobs byte
		if len(data) > 0 {
			knobs = data[len(data)-1]
		}
		kernels := []domain.Kernel{domain.KernelAuto, domain.KernelBitset, domain.KernelSlice}
		riPruning := domain.Filters{
			Schedule: []domain.Schedule{domain.ScheduleAuto, domain.ScheduleFixed}[knobs&1],
			ACPasses: int(knobs >> 1 & 1),
			SkipNLF:  knobs>>2&1 == 1,
			Kernel:   kernels[int(knobs>>4&3)%3],
		}
		ladPruning := domain.Filters{
			Schedule:      []domain.Schedule{domain.ScheduleFixed, domain.ScheduleAuto}[knobs&1],
			SkipInducedAC: knobs>>3&1 == 1,
			Kernel:        kernels[int(knobs>>6&3)%3],
		}
		var counts [3]int64
		sems := []Semantics{InducedIso, SubgraphIso, Homomorphism}
		for i, sem := range sems {
			ri, err := Count(gp, gt, Options{Algorithm: RIDSSIFC, Semantics: sem, filters: riPruning})
			if err != nil {
				t.Fatalf("RI-DS-SI-FC under %v: %v\npattern=%v target=%v", sem, err, gp.Edges(), gt.Edges())
			}
			lad, err := Count(gp, gt, Options{Algorithm: LAD, Semantics: sem, filters: ladPruning})
			if err != nil {
				t.Fatalf("LAD under %v: %v\npattern=%v target=%v", sem, err, gp.Edges(), gt.Edges())
			}
			if ri != lad {
				t.Fatalf("engines disagree under %v (knobs=%#x): RI-DS-SI-FC=%d LAD=%d\npattern(n=%d)=%v\ntarget(n=%d)=%v",
					sem, knobs, ri, lad, gp.NumNodes(), gp.Edges(), gt.NumNodes(), gt.Edges())
			}
			counts[i] = ri
		}
		if counts[0] > counts[1] || counts[1] > counts[2] {
			t.Fatalf("containment violated: induced=%d iso=%d hom=%d\npattern(n=%d)=%v\ntarget(n=%d)=%v",
				counts[0], counts[1], counts[2], gp.NumNodes(), gp.Edges(), gt.NumNodes(), gt.Edges())
		}
	})
}

// decodeFuzzUpdates decodes fuzzer bytes into a base target plus a
// sequence of edge-update batches. Like the other decoders it is
// positional and total — missing bytes read as zero — so every input is
// a valid mutation history and the fuzzer explores graph/batch shapes,
// not parser rejections:
//
//	[0]          target node count (1–6)
//	[1..]        n node labels (mod 3)
//	[.]          base edge count (mod 12), 2 bytes per edge
//	             u = b1 mod n, v = b2 mod n, label = (b1>>6) & 1
//	[.]          batch count (mod 4)
//	per batch:   update count (1 + mod 5), 3 bytes per update
//	             u = b1 mod n, v = b2 mod n, label = b3 & 1,
//	             remove = b3 & 2
//
// Duplicate updates, add/remove cancellations and no-op removals all
// arise naturally from the modular arithmetic.
func decodeFuzzUpdates(data []byte) (*Graph, [][]EdgeUpdate) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := 1 + int(next())%6
	b := NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		b.AddNode(Label(next() % 3))
	}
	m := int(next()) % 12
	for i := 0; i < m; i++ {
		e1, e2 := next(), next()
		b.AddEdge(int32(int(e1)%n), int32(int(e2)%n), Label((e1>>6)&1))
	}
	nb := int(next()) % 4
	batches := make([][]EdgeUpdate, nb)
	for i := range batches {
		k := 1 + int(next())%5
		ups := make([]EdgeUpdate, k)
		for j := range ups {
			b1, b2, b3 := next(), next(), next()
			ups[j] = EdgeUpdate{
				From:   int32(int(b1) % n),
				To:     int32(int(b2) % n),
				Label:  Label(b3 & 1),
				Remove: b3&2 != 0,
			}
		}
		batches[i] = ups
	}
	return b.MustBuild(), batches
}

// FuzzEdgeUpdates drives random mutation histories through
// Target.ApplyUpdates and asserts, after every batch, that the
// incrementally-maintained state — edge multiset, domain index, query
// counts — equals a from-scratch rebuild of the same logical graph
// (TestApplyUpdatesDifferential under coverage guidance). The committed
// corpus lives in testdata/fuzz/FuzzEdgeUpdates; in a plain `go test`
// run the seeds execute as regression tests.
func FuzzEdgeUpdates(f *testing.F) {
	// Triangle base, one batch that removes an arc and re-adds it with
	// the other label.
	f.Add([]byte{
		3, 0, 1, 2,
		6, 0, 1, 1, 0, 1, 2, 2, 1, 2, 0, 0, 2,
		1, 3, 0, 1, 2, 0, 1, 1,
	})
	// Parallel edges and self-loops: base {0→0, 0→1 ×2}, two batches
	// exercising copy-count exhaustion (two removes of the same arc) and
	// in-batch add/remove cancellation.
	f.Add([]byte{
		2, 0, 0,
		3, 0, 0, 0, 1, 0, 1,
		2, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 0, 0, 1, 2,
	})
	// Empty base graph, adds only.
	f.Add([]byte{4, 0, 1, 2, 0, 0, 1, 2, 0, 1, 0, 2, 3, 1, 1, 2, 0})
	// No-op batch (remove from the empty graph) followed by an add.
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0})
	// Base {0→0, 0→1} over labels (0, 1); one batch removes the
	// self-loop, the next re-adds it: the induced probe then matches
	// 0→1 only if the index's self-loop set followed both batches.
	f.Add([]byte{1, 0, 1, 2, 0, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 0, 0})

	// Single-edge probe pattern: enough to catch a target whose
	// incremental index disagrees with its graph.
	pb := NewBuilder(2, 1)
	pb.AddNode(0)
	pb.AddNode(1)
	pb.AddEdge(0, 1, 0)
	probe := pb.MustBuild()

	f.Fuzz(func(t *testing.T, data []byte) {
		g, batches := decodeFuzzUpdates(data)
		tgt, err := NewTarget(g, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Materialize the bitset rows up front so every ApplyUpdates
		// below exercises the incremental touched-row Rebuild path, whose
		// result IndexEqual then compares against a from-scratch build.
		tgt.state.Load().index.Rows(tgt.Graph())
		oracle := g.Edges()
		labels := nodeLabels(g)
		for bi, ups := range batches {
			if _, err := tgt.ApplyUpdates(context.Background(), ups); err != nil {
				t.Fatalf("batch %d: %v\nbase=%v ups=%v", bi, err, g.Edges(), ups)
			}
			oracle = applyOracle(oracle, ups)
			og := graphFromEdges(t, labels, oracle)

			got, want := sortedEdges(tgt.Graph()), sortedEdges(og)
			if len(got) != len(want) {
				t.Fatalf("batch %d: %d edges, oracle %d\nups=%v", bi, len(got), len(want), ups)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batch %d: edge %d = %v, oracle %v\nups=%v", bi, i, got[i], want[i], ups)
				}
			}

			rebuilt, err := NewTarget(og, TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Build the rebuilt target's rows from scratch so IndexEqual's
			// row comparison runs: incrementally-rebuilt bitset rows must
			// be bit-identical to a clean build of the same logical graph.
			rebuilt.state.Load().index.Rows(rebuilt.Graph())
			if ok, diff := domain.IndexEqual(tgt.state.Load().index, rebuilt.state.Load().index); !ok {
				t.Fatalf("batch %d: incremental index differs from rebuild: %s\nbase=%v ups=%v",
					bi, diff, g.Edges(), ups)
			}
			// The induced probe's unary filter reads the index's
			// self-loop set, so a stale bit would miscount here.
			for _, sem := range []Semantics{SubgraphIso, InducedIso, Homomorphism} {
				inc, err := tgt.Count(context.Background(), probe, Options{Algorithm: RIDSSIFC, Semantics: sem})
				if err != nil {
					t.Fatal(err)
				}
				if oc := testutil.BruteCountSem(probe, og, sem); inc != oc {
					t.Fatalf("batch %d: probe count under %v = %d, oracle %d\ngraph=%v", bi, sem, inc, oc, og.Edges())
				}
			}
		}
	})
}
