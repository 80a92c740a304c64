package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"parsge"
	"parsge/internal/datasets"
	"parsge/internal/graphio"
)

// The three workloads. Each stresses different layers of the serving
// stack; every parameter below is fixed so that a run does fixed work.
//
//   - dense-cold: a PPIS32-shaped collection (dense, 32 labels,
//     heavy-tailed degrees), every op a distinct query identity, one
//     client. Search, domain preprocessing, the cost estimate and the
//     steal pool do the work; the result cache does none.
//   - sparse-hot: a PDBSv1-shaped collection (sparse, 8 labels), two
//     clients replaying a Zipf-skewed mix of a small pattern pool that
//     fits the result cache, warmed before timing. Handler parsing,
//     canonicalization, cache lookup, mapping translation and encoding
//     do the work; a search speedup predicts no change here.
//   - sparse-mutate: the same PDBSv1 shape. A writer cycles single-arc
//     update batches (each undone by a later one), a k=4 census and a
//     re-query over its own targets; a reader replays the same hot mix
//     with each cold identity sent once on the other targets, so its
//     cold queries queue behind the census on the shared admission.
type workload struct {
	name string
	// collection selects the synthetic dataset; patterns overrides its
	// pattern count (0 keeps the generator's).
	collection string
	patterns   int
	// passSize scales the op lists; a pass replays them once on a
	// freshly built stack. passSeconds is a pass's nominal length, which
	// turns --seconds into a fixed pass count.
	passSize    int
	passSeconds float64
	// poolPatterns caps the small patterns that form the hot pool
	// (sparse workloads).
	poolPatterns int
	// writerTargets and cycles shape the sparse-mutate writer.
	writerTargets, cycles int
}

// scale is every workload's collection scale.
const scale = 0.1

// stateCap is the reference-engine States count above which a pattern is
// left out of the op list (unless the service refuses it on its domain
// bound alone).
const stateCap = 2_000_000

var workloads = []*workload{
	{
		name:       "dense-cold",
		collection: "PPIS32", patterns: 150,
		passSeconds: 0.5,
	},
	{
		name:       "sparse-hot",
		collection: "PDBSv1",
		passSize:   10000, passSeconds: 1.5, poolPatterns: 60,
	},
	{
		name:       "sparse-mutate",
		collection: "PDBSv1",
		passSize:   12000, passSeconds: 2.2, poolPatterns: 40,
		writerTargets: 2, cycles: 100,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Semantics spellings, as the HTTP API takes them.
const (
	semIso     = "iso"
	semInduced = "induced"
	semHom     = "hom"
)

func semantics(s string) parsge.Semantics {
	switch s {
	case semInduced:
		return parsge.InducedIso
	case semHom:
		return parsge.Homomorphism
	default:
		return parsge.SubgraphIso
	}
}

// collectionSeed generates every workload's collection (it is sgeserve's
// default -seed). The collection is fixed and --seed draws the request
// stream from it: per-pattern costs are heavy-tailed, so a collection
// drawn per seed moves throughput and tail latency between seeds by far
// more than any regression bound (see NOTES.md).
const collectionSeed = 20170525

// inputs are the graphs a workload serves and queries.
type inputs struct {
	w        *workload
	targets  []*parsge.Graph
	names    []string
	patterns []datasets.Pattern
	texts    []string // GFF text of each pattern, as clients post it
	maxLabel int
	// writers are the mutated targets (sparse-mutate); forward[i] is
	// writer i's edge-update batch and undo[i] its inverse.
	writers       []int
	forward, undo [][]parsge.EdgeUpdate
}

func generate(w *workload) (*inputs, error) {
	c, err := datasets.ByName(w.collection, datasets.Config{Scale: scale, Seed: collectionSeed, NumPatterns: w.patterns})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, targets: c.Targets, patterns: c.Patterns}
	for i, g := range c.Targets {
		in.names = append(in.names, fmt.Sprintf("t%d", i))
		if l := int(g.MaxNodeLabel()); l > in.maxLabel {
			in.maxLabel = l
		}
	}
	table := in.labelTable()
	for i, p := range c.Patterns {
		var sb strings.Builder
		if err := graphio.Write(&sb, fmt.Sprintf("p%d", i), p.Graph, table); err != nil {
			return nil, err
		}
		in.texts = append(in.texts, sb.String())
	}
	if w.writerTargets > 0 {
		in.writers = largestTargets(c.Targets, w.writerTargets)
		rng := rand.New(rand.NewSource(collectionSeed ^ 0x77726974))
		for _, t := range in.writers {
			f, u := updateBatch(rng, c.Targets[t])
			in.forward = append(in.forward, f)
			in.undo = append(in.undo, u)
		}
	}
	return in, nil
}

// labelTable returns a table spelling label l as the decimal "l", the
// way sgeserve pre-interns collection labels.
func (in *inputs) labelTable() *graphio.LabelTable {
	table := graphio.NewLabelTable()
	for l := 1; l <= in.maxLabel; l++ {
		table.Intern(fmt.Sprint(l))
	}
	return table
}

// largestTargets returns the indexes of the n largest targets, largest
// first; ties go to the lower index.
func largestTargets(gs []*parsge.Graph, n int) []int {
	idx := make([]int, len(gs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return gs[idx[a]].NumNodes() > gs[idx[b]].NumNodes() })
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}

// updateBatch adds one arc between two distinct random vertices of g
// and returns that batch with its inverse, so applying the two in turn
// returns the graph to its original edge multiset. It is the single-arc
// batch `sgebench -loadgen -update-target` sends.
func updateBatch(rng *rand.Rand, g *parsge.Graph) (forward, undo []parsge.EdgeUpdate) {
	n := int32(g.NumNodes())
	u, v := rng.Int31n(n), rng.Int31n(n)
	for u == v {
		v = rng.Int31n(n)
	}
	return []parsge.EdgeUpdate{{From: u, To: v}}, []parsge.EdgeUpdate{{From: u, To: v, Remove: true}}
}

// fingerprint hashes everything the ground truth depends on, so stored
// truth is used only for the very inputs it was computed from.
func (in *inputs) fingerprint() string {
	h := fnv.New64a()
	w := in.w
	fmt.Fprintf(h, "v%d|%s|%s|%g|%d|%d|%d|%d|%d|%d\n", truthVersion, w.name, w.collection, scale, w.patterns,
		stateCap, w.poolPatterns, w.writerTargets, collectionSeed, maxPatternNodes)
	table := in.labelTable()
	for i, g := range in.targets {
		graphio.Write(h, in.names[i], g, table) // writes to a hash cannot fail
	}
	for _, t := range in.texts {
		h.Write([]byte(t))
	}
	for i := range in.forward {
		fmt.Fprintf(h, "%d %v %v\n", in.writers[i], in.forward[i], in.undo[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
