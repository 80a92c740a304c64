package main

import (
	"math/rand"
	"sort"
)

type opKind int

const (
	kindCount opKind = iota
	kindMappings
	kindStream
	kindCensus
	kindUpdate
)

func (k opKind) query() bool { return k <= kindStream }

// op is one request of a client's list.
type op struct {
	kind opKind
	// ident indexes truth.Idents (query kinds).
	ident int
	// target and state name the writer target and the graph state the
	// op leaves it in (census and update kinds).
	target, state int
	// writer marks the sparse-mutate writer's re-queries.
	requery bool
}

// drawKind draws a sparse-mix request kind with the shares
// `sgebench -loadgen` uses: one request in 16 is an NDJSON stream, one in
// 8 of the rest asks for mappings, and the others are counts.
func drawKind(rng *rand.Rand) opKind {
	switch {
	case rng.Intn(16) == 0:
		return kindStream
	case rng.Intn(8) == 0:
		return kindMappings
	}
	return kindCount
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1):
// Zipf's law with exponent 1, the form with no parameter to choose.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	sum := 0.0
	for r := range z.cdf {
		sum += 1 / float64(r+1)
		z.cdf[r] = sum
	}
	return z
}

func (z *zipf) draw() int { return sort.SearchFloat64s(z.cdf, z.rng.Float64()*z.cdf[len(z.cdf)-1]) }

// hotList draws n ops of the hot mix: pool identities in Zipf order of
// their popularity, each with a drawn request kind.
func hotList(rng *rand.Rand, pool []int, n int) []op {
	order := popularity(pool)
	z := newZipf(rng, len(order))
	list := make([]op, n)
	for i := range list {
		list[i] = op{kind: drawKind(rng), ident: order[z.draw()]}
	}
	return list
}

// censusK is the census size the sparse-mutate writer requests.
const censusK = 4

// opLists draws every client's op list from the truth's identities with
// the seed. The same seed and truth always give the same lists.
func opLists(in *inputs, tr *truth, seed int64) [][]op {
	w := in.w
	byRole := func(role string) []int {
		var out []int
		for i, id := range tr.Idents {
			if id.Role == role {
				out = append(out, i)
			}
		}
		return out
	}
	switch {
	case w.writerTargets > 0:
		return [][]op{writerList(in, tr, seed), readerList(w, seed, byRole(rolePool), byRole(roleCold))}
	case w.poolPatterns > 0:
		var lists [][]op
		for c := int64(0); c < 2; c++ {
			lists = append(lists, hotList(rand.New(rand.NewSource(seed^(0x686f74+c))), byRole(rolePool), w.passSize))
		}
		return lists
	default:
		ids := byRole(roleCold)
		rng := rand.New(rand.NewSource(seed ^ 0x636f6c64))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		list := make([]op, len(ids))
		for i, id := range ids {
			list[i] = op{kind: kindCount, ident: id}
		}
		return [][]op{list}
	}
}

// warmList is replayed once, untimed, on each fresh stack before the
// timed phase: every hot-pool identity as a mappings request, whose cache
// entry serves all of its request kinds.
func warmList(in *inputs, tr *truth) []op {
	if in.w.poolPatterns == 0 {
		return nil
	}
	var out []op
	for i, id := range tr.Idents {
		if id.Role == rolePool {
			out = append(out, op{kind: kindMappings, ident: i})
		}
	}
	return out
}

// popularity assigns Zipf ranks to the pool: a permutation fixed with the
// collection, so which identities are hot (and how many of those are
// refused) does not change with the seed.
func popularity(pool []int) []int {
	order := append([]int(nil), pool...)
	rng := rand.New(rand.NewSource(collectionSeed ^ 0x706f70))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// writerList cycles over the writer targets: an update batch (forward on
// even visits, undo on odd ones, so the graph never drifts), a census of
// the new state, then one re-query of that state.
func writerList(in *inputs, tr *truth, seed int64) []op {
	offset := int(uint64(seed) % 64) // where the re-query rotation starts
	var list []op
	for c := 0; c < in.w.cycles; c++ {
		t := in.writers[c%len(in.writers)]
		state := 1 - (c/len(in.writers))%2
		list = append(list, op{kind: kindUpdate, target: t, state: state}, op{kind: kindCensus, target: t, state: state})
		var ids []int
		for i, id := range tr.Idents {
			if id.Role == roleRequery && id.Target == t && id.State == state {
				ids = append(ids, i)
			}
		}
		if len(ids) > 0 {
			visit := c / len(in.writers) / 2
			list = append(list, op{kind: kindCount, ident: ids[(offset+visit)%len(ids)], requery: true})
		}
	}
	return list
}

// readerList is the hot mix with every cold identity sent once, in a
// seeded order, at evenly spaced positions of the list.
func readerList(w *workload, seed int64, pool, cold []int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x72656164))
	list := hotList(rng, pool, w.passSize)
	cold = append([]int(nil), cold...)
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	for j, id := range cold {
		list[(2*j+1)*len(list)/(2*len(cold))] = op{kind: drawKind(rng), ident: id}
	}
	return list
}
