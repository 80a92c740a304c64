package parsge

import (
	"fmt"
	"slices"
	"testing"

	"parsge/internal/domain"
	"parsge/internal/ri"
	"parsge/internal/testutil"
)

// kernelEngines are the engines the kernel differential battery sweeps:
// the RI family's best variant sequentially and through the
// work-stealing parallel engine (which inherits the kernel through the
// shared ri.Prepare/Feasible), plus the two independent baselines that
// got their own kernel rewires.
var kernelEngines = []struct {
	name string
	opts Options
}{
	{"RI-DS-SI-FC", Options{Algorithm: RIDSSIFC}},
	{"steal-RI-DS-SI-FC", Options{Algorithm: RIDSSIFC, Workers: 4, TaskGroupSize: 2}},
	{"VF2", Options{Algorithm: VF2}},
	{"LAD", Options{Algorithm: LAD}},
}

// kernelKinds are the differential battery's four instance kinds (those
// of the cross-engine differential): plain, extracted, nasty (parallel
// arcs and self-loops) and dense-labeled.
var kernelKinds = []struct {
	name string
	opts testutil.InstanceOptions
}{
	{"plain", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4}},
	{"extract", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4, Extract: true}},
	{"nasty", testutil.InstanceOptions{TargetNodes: 8, TargetEdges: 22, PatternNodes: 3, Nasty: true}},
	{"dense", testutil.InstanceOptions{TargetNodes: 7, TargetEdges: 30, PatternNodes: 4, NodeLabels: 2, Extract: true}},
}

// TestKernelDifferential is the bitset-kernel acceptance battery: on 120
// random instances (the same four instance kinds as the cross-engine
// differential — plain, extracted, nasty, dense-labeled), every engine
// must return the brute-force oracle's count under BOTH kernels and all
// three semantics. A bitset row with a stale or missing bit loses or
// invents matches on some instance here; a divergence between the two
// kernels on the same engine localizes the bug to the kernel layer.
func TestKernelDifferential(t *testing.T) {
	kernels := []domain.Kernel{domain.KernelBitset, domain.KernelSlice}
	const seedsPerKind = 30 // 4 kinds × 30 seeds = 120 instances per semantics
	for _, k := range kernelKinds {
		for seed := int64(0); seed < seedsPerKind; seed++ {
			gp, gt := testutil.RandomInstance(seed, k.opts)
			for _, sem := range allSemantics {
				want := testutil.BruteCountSem(gp, gt, sem)
				for _, eng := range kernelEngines {
					for _, kern := range kernels {
						opts := eng.opts
						opts.Semantics = sem
						opts.filters.Kernel = kern
						got, err := Count(gp, gt, opts)
						if err != nil {
							t.Fatalf("%s/seed=%d: %s/%v under %v: %v", k.name, seed, eng.name, kern, sem, err)
						}
						if got != want {
							t.Errorf("%s/seed=%d: %s/%v under %v = %d, want %d",
								k.name, seed, eng.name, kern, sem, got, want)
						}
					}
				}
			}
		}
	}
}

// searchTrace is what a sequential run reports and shows through Visit:
// the counts, the search profile and an order-sensitive hash of every
// mapping Visit received.
type searchTrace struct {
	matches, states int64
	depth           []int64
	visitHash       uint64
}

func traceSearch(t *testing.T, gp, gt *Graph, opts Options) searchTrace {
	t.Helper()
	var tr searchTrace
	tr.visitHash = 14695981039346656037 // FNV-1a offset basis
	opts.Visit = func(m []int32) bool {
		for _, v := range m {
			tr.visitHash = (tr.visitHash ^ uint64(uint32(v))) * 1099511628211
		}
		return true
	}
	res, err := Enumerate(gp, gt, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.matches, tr.states, tr.depth = res.Matches, res.States, res.DepthStates
	return tr
}

// TestKernelDifferentialSearch pins the counting rule of the row loop.
// Run sequentially, RI-DS, RI-DS-SI and RI-DS-SI-FC draw a position's
// candidates from the parent image's bitset row ANDed with the domain
// under the bitset kernel, and from the parent image's adjacency list
// one neighbor at a time under the slice kernel. Both must report the
// same Matches, States and DepthStates, and call Visit with the same
// mappings in the same order, under all three semantics, also when a
// Limit of 1, 3 or 7 stops the run inside a row. The instances are the
// battery's four kinds and two 150-node, 1,500-arc kinds whose rows
// span three words: an extracted 4-label kind, and an extracted nasty
// kind. The row loop takes only parent images with at least 8 arcs in
// the scanned direction, which the battery's 7- to 9-node targets never
// have, so every row-loop comparison comes from the 150-node kinds; the
// nasty one puts parallel arcs, which the adjacency loop skips, and
// self-loops, which homomorphisms may map onto, in the rows.
func TestKernelDifferentialSearch(t *testing.T) {
	type kind = struct {
		name string
		opts testutil.InstanceOptions
	}
	kinds := append(kernelKinds[:len(kernelKinds):len(kernelKinds)],
		kind{"extract150", testutil.InstanceOptions{TargetNodes: 150, TargetEdges: 1500, PatternNodes: 6, NodeLabels: 4, Extract: true}},
		kind{"nasty150", testutil.InstanceOptions{TargetNodes: 150, TargetEdges: 1500, PatternNodes: 5, Nasty: true, Extract: true}})
	const seedsPerKind = 30
	for _, k := range kinds {
		for seed := int64(0); seed < seedsPerKind; seed++ {
			gp, gt := testutil.RandomInstance(seed, k.opts)
			for _, sem := range allSemantics {
				for _, alg := range []Algorithm{RIDS, RIDSSI, RIDSSIFC} {
					for _, limit := range []int64{0, 1, 3, 7} {
						opts := Options{Algorithm: alg, Semantics: sem, Limit: limit}
						opts.filters.Kernel = domain.KernelBitset
						bits := traceSearch(t, gp, gt, opts)
						opts.filters.Kernel = domain.KernelSlice
						slice := traceSearch(t, gp, gt, opts)
						if bits.matches != slice.matches || bits.states != slice.states ||
							!slices.Equal(bits.depth, slice.depth) || bits.visitHash != slice.visitHash {
							t.Errorf("%s/seed=%d: %v under %v, limit %d: bitset %+v, slice %+v",
								k.name, seed, alg, sem, limit, bits, slice)
						}
					}
				}
			}
		}
	}
}

// TestKernelDifferentialGoldenMotifs re-runs the hand-computed golden
// motif tables with the bitset kernel forced on every engine
// configuration of the differential suite (the default Auto already
// resolves to bitset on these tiny targets; forcing it removes any
// dependence on the resolution rule).
func TestKernelDifferentialGoldenMotifs(t *testing.T) {
	for _, c := range goldenMotifCases {
		t.Run(c.name, func(t *testing.T) {
			wants := map[Semantics]int64{
				SubgraphIso:  c.iso,
				InducedIso:   c.induced,
				Homomorphism: c.homo,
			}
			for _, sem := range allSemantics {
				for _, ec := range engineConfigs {
					opts := ec.opts
					opts.Semantics = sem
					opts.filters.Kernel = domain.KernelBitset
					got, err := Count(c.pattern, c.target, opts)
					if err != nil {
						t.Fatalf("%s under %v: %v", ec.name, sem, err)
					}
					if got != wants[sem] {
						t.Errorf("%s under %v = %d, want %d", ec.name, sem, got, wants[sem])
					}
				}
			}
		})
	}
}

// TestKernelDifferentialAllocs pins the inner extend loop at zero
// allocations per embedding under the bitset kernel: a complete run on a
// fixed dense graph with over a thousand embeddings may only pay the
// constant per-run setup (searcher state), never an allocation that
// scales with matches or states. The bound is a ratio rather than an
// absolute so the pin stays green under -race instrumentation and
// testing-harness noise.
func TestKernelDifferentialAllocs(t *testing.T) {
	gp, gt := cliqueGraph(3), cliqueGraph(12) // 12·11·10 = 1320 embeddings
	prep, err := ri.Prepare(gp, gt, ri.Options{
		Variant: ri.VariantRIDSSIFC,
		Filters: domain.Filters{Kernel: domain.KernelBitset, Schedule: domain.ScheduleFixed},
	})
	if err != nil {
		t.Fatal(err)
	}
	arena := ri.NewArena(gt.NumNodes())
	warm := prep.Run(ri.RunOptions{Arena: arena})
	if warm.Matches < 100 {
		t.Fatalf("fixed seed instance too easy: %d embeddings (want ≥ 100 for a meaningful pin)", warm.Matches)
	}
	per := testing.AllocsPerRun(5, func() {
		prep.Run(ri.RunOptions{Arena: arena})
	})
	perEmbedding := per / float64(warm.Matches)
	t.Logf("%d embeddings, %.1f allocs/run, %.5f allocs/embedding", warm.Matches, per, perEmbedding)
	if perEmbedding > 0.02 {
		t.Errorf("inner loop allocates: %.1f allocs/run over %d embeddings = %.4f allocs/embedding (want ≤ 0.02, i.e. constant per-run setup only)",
			per, warm.Matches, perEmbedding)
	}
}

// TestKernelFallbackAboveLimit pins the sorted-slice fallback rule:
// forcing KernelBitset must be a silent no-op (identical counts, no
// error) when the target exceeds the dense-row threshold. Building a
// >2^14-node graph per test run is too slow, so this covers the
// resolution rule directly plus the engine-level nil-rows path via the
// ResolveKernel contract.
func TestKernelFallbackAboveLimit(t *testing.T) {
	if got := domain.ResolveKernel(domain.KernelAuto, 1<<14); got != domain.KernelBitset {
		t.Errorf("ResolveKernel(Auto, 2^14) = %v, want bitset (limit is inclusive)", got)
	}
	if got := domain.ResolveKernel(domain.KernelAuto, 1<<14+1); got != domain.KernelSlice {
		t.Errorf("ResolveKernel(Auto, 2^14+1) = %v, want slice", got)
	}
	for _, k := range []domain.Kernel{domain.KernelBitset, domain.KernelSlice} {
		if got := domain.ResolveKernel(k, 1); got != k {
			t.Errorf("ResolveKernel(%v, 1) = %v, want explicit choice preserved", k, got)
		}
	}
	for k, want := range map[domain.Kernel]string{domain.KernelAuto: "auto", domain.KernelBitset: "bitset", domain.KernelSlice: "slice"} {
		if got := fmt.Sprint(k); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
