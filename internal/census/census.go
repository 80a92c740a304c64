// Package census implements the motif-census subsystem: enumeration of
// every connected k-vertex subgraph of a target (k = 2..6) with counts
// per induced-subgraph isomorphism class — the network-motif analysis
// workload, inverting the library's usual "find matches of one pattern"
// question into "which patterns occur, and how often".
//
// The enumeration is ESU (Wernicke's FANMOD algorithm): for each root
// vertex v, grow subgraphs from extension sets restricted to ids > v
// and to the exclusive neighborhood of the current subgraph, which
// yields every connected k-vertex set exactly once. A step extends from
// u's sorted neighbor list in O(degree of u), and a run allocates
// O(n + m), never n² bits. The hot-path sets — extension and
// visited-neighborhood per recursion depth — are internal/bitset masks,
// and the "only ids past the root" rule costs nothing extra because the
// root's whole id prefix is pre-set into the visited mask
// (bitset.SetRange) a neighbor must be absent from to extend.
//
// Parallelism splits the top-level extension trees — one per root
// vertex — across walkers that take roots from one shared atomic
// cursor: a walker that finishes a root takes the next unclaimed one,
// and leaves once the cursor passes n. Heavy and light roots therefore
// balance by themselves, with no deal to skew and no idle worker
// spinning for work. Each walker accumulates counts into a private map;
// the maps are reduced after the last walker leaves, so the enumeration
// itself is synchronization-free.
//
// Classifying an emitted subgraph runs through a two-level memo so each
// isomorphism class is canonized once: the induced subgraph serialized
// in discovery order (a cheap, relabeling-*variant* key) indexes a
// sharded concurrent map; a miss canonizes via
// graph.CanonicalFormBudget and dedups through a registry keyed by the
// canonical encoding, so distinct discovery orders of one class share a
// single classInfo and a single representative graph. Keys depend only
// on the labelled subgraph, so a memo outlives its run: Memos keeps one
// per K for later runs on the same label space.
package census

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"parsge/internal/bitset"
	"parsge/internal/graph"
)

// MinK and MaxK bound the subgraph size: 2 is the smallest connected
// subgraph with structure (an edge), 6 the point where the number of
// classes and the cost of exhaustive enumeration stop being a serving
// workload (the FANMOD tool draws the same line).
const (
	MinK = 2
	MaxK = 6
)

// canonBudget caps the individualization search per class. A k ≤ 6
// subgraph explores at most k! = 720 complete orderings even fully
// symmetric, so the budget never triggers; it is defense in depth
// should MaxK ever grow.
const canonBudget = 1 << 12

// Options configures Run.
type Options struct {
	// K is the subgraph size, in [MinK, MaxK].
	K int
	// Workers is the number of walkers; ≤ 1 runs one walker on the
	// calling goroutine.
	Workers int
	// Memos, when non-nil, supplies the class memo the run pins (see
	// Memos); nil classifies through a memo of the run's own.
	Memos *Memos
}

// Class is one induced-subgraph isomorphism class of the census.
type Class struct {
	// Count is the number of connected k-vertex sets whose induced
	// subgraph belongs to this class.
	Count int64
	// Rep is the class representative in canonical numbering.
	Rep *graph.Graph
	// Encoding is the canonical encoding identifying the class
	// (graph.CanonicalForm bytes); Hash is graph.HashBytes of it.
	Encoding []byte
	Hash     uint64
}

// Result reports one census run.
type Result struct {
	K int
	// Subgraphs is the total number of connected k-vertex subgraphs
	// (sum of all class counts).
	Subgraphs int64
	// Classes is sorted by descending Count (ties by encoding).
	Classes []Class
	// MemoHits and MemoMisses count this run's discovery-order memo
	// lookups; each miss paid one canonization.
	MemoHits, MemoMisses int64
	// PerWorkerSubgraphs breaks Subgraphs down by walker (parallel runs
	// only) — the work-division profile of the root split.
	PerWorkerSubgraphs []int64
	// Aborted reports the run was cut short by context cancellation;
	// counts are then lower bounds.
	Aborted bool
}

// Run enumerates the census of g. Cancelling ctx aborts promptly with
// Result.Aborted set.
func Run(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	if g == nil {
		return Result{}, fmt.Errorf("census: nil graph")
	}
	if opts.K < MinK || opts.K > MaxK {
		return Result{}, fmt.Errorf("census: K must be in [%d, %d], got %d", MinK, MaxK, opts.K)
	}
	if ctx == nil {
		ctx = context.Background() //sgelint:ignore ctxbackground documented nil-ctx default at the census entry point, mirroring the query boundary
	}
	n := g.NumNodes()
	res := Result{K: opts.K}
	if n < opts.K {
		return res, nil
	}
	m := opts.Memos.pin(opts.K)
	defer opts.Memos.unpin(opts.K, m)

	adj := buildAdjacency(g)
	cancelled := func() bool { return ctx.Err() != nil }
	walkers := make([]*walker, max(1, min(opts.Workers, n)))
	for i := range walkers {
		walkers[i] = newWalker(g, adj, opts.K, m, cancelled)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, w := range walkers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.walk(&cursor)
		}()
	}
	walkers[0].walk(&cursor)
	wg.Wait()
	gather(&res, walkers, len(walkers) > 1)
	return res, nil
}

// gather reduces the per-walker count maps into the Result.
func gather(res *Result, walkers []*walker, perWorker bool) {
	total := make(map[*classInfo]int64)
	if perWorker {
		res.PerWorkerSubgraphs = make([]int64, len(walkers))
	}
	for i, w := range walkers {
		if perWorker {
			res.PerWorkerSubgraphs[i] = w.subgraphs
		}
		res.Subgraphs += w.subgraphs
		res.MemoHits += w.hits
		res.MemoMisses += w.misses
		for ci, c := range w.counts {
			total[ci] += c
		}
		if w.aborted {
			res.Aborted = true
		}
	}
	res.Classes = make([]Class, 0, len(total))
	for ci, c := range total {
		res.Classes = append(res.Classes, Class{Count: c, Rep: ci.rep, Encoding: ci.enc, Hash: ci.hash})
	}
	sort.Slice(res.Classes, func(i, j int) bool {
		a, b := res.Classes[i], res.Classes[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return bytes.Compare(a.Encoding, b.Encoding) < 0
	})
}

// buildAdjacency returns the undirected-sense neighbor lists ESU walks:
// sorted out ∪ in neighbors, self-loops and parallel edges collapsed
// (they do not affect connectivity; the induced subgraphs keep them).
func buildAdjacency(g *graph.Graph) [][]int32 {
	n := g.NumNodes()
	adj := make([][]int32, n)
	for v := int32(0); v < int32(n); v++ {
		l := make([]int32, 0, g.Degree(v))
		l = append(l, g.OutNeighbors(v)...)
		l = append(l, g.InNeighbors(v)...)
		slices.Sort(l)
		l = slices.Compact(l)
		if i, ok := slices.BinarySearch(l, v); ok {
			l = slices.Delete(l, i, i+1)
		}
		adj[v] = l
	}
	return adj
}

// walker is one worker's ESU state: the vertex stack plus per-depth
// extension and visited-neighborhood bitsets, all allocated once.
type walker struct {
	g   *graph.Graph
	adj [][]int32 // buildAdjacency's neighbor lists
	k   int

	sub  []int32       // vertex stack, discovery order; length k
	ext  []*bitset.Set // ext[d]: extension candidates with d+1 vertices placed
	seen []*bitset.Set // seen[d]: {0..root} ∪ subgraph ∪ its neighborhood
	pos  []int32       // target node → position in sub, -1 outside

	memo    *memo
	counts  map[*classInfo]int64
	key     []byte        // discovery-order serialization scratch
	buckets []labelBucket // k×k per-ordered-pair edge-label collectors

	subgraphs    int64
	hits, misses int64 // memo lookups, counted here to keep the memo's hot path free of shared writes
	steps        int
	cancelled    func() bool
	aborted      bool
}

type labelBucket []graph.Label

func newWalker(g *graph.Graph, adj [][]int32, k int, m *memo, cancelled func() bool) *walker {
	n := g.NumNodes()
	w := &walker{
		g:         g,
		adj:       adj,
		k:         k,
		sub:       make([]int32, k),
		ext:       make([]*bitset.Set, k),
		seen:      make([]*bitset.Set, k),
		pos:       make([]int32, n),
		memo:      m,
		counts:    make(map[*classInfo]int64),
		buckets:   make([]labelBucket, k*k),
		cancelled: cancelled,
	}
	for d := 0; d < k; d++ {
		w.ext[d] = bitset.New(n)
		w.seen[d] = bitset.New(n)
	}
	for i := range w.pos {
		w.pos[i] = -1
	}
	return w
}

// walk runs roots taken from the shared cursor until it passes the
// node count or the run is cancelled.
func (w *walker) walk(cursor *atomic.Int64) {
	n := int64(len(w.adj))
	for !w.poll() {
		v := cursor.Add(1) - 1
		if v >= n {
			return
		}
		w.root(int32(v))
	}
}

// poll checks for cancellation every 1024 expansion steps — the same
// low-frequency polling discipline the search engines use, cheap enough
// for the hot path yet prompt enough for sub-100ms teardown. At the
// same cadence the walker yields its processor: admission tokens cover
// the census and the searches, not the goroutines around them (HTTP
// handlers, cache hits), and with every processor running a walker one
// of those would otherwise wait for the scheduler's 10 ms preemption.
func (w *walker) poll() bool {
	w.steps++
	if w.steps&1023 == 0 {
		if w.cancelled() {
			w.aborted = true
		}
		runtime.Gosched()
	}
	return w.aborted
}

// root enumerates every connected k-subgraph whose minimum vertex id is
// v. Its extension starts with v's neighbors above v; seeding seen[0]
// with the whole prefix [0, v] makes the ESU ">root" rule implicit
// deeper down, where a neighbor joins an extension only when it is not
// yet in seen, so ids at or below the root can never re-enter.
func (w *walker) root(v int32) {
	if w.aborted {
		return
	}
	s0, e0 := w.seen[0], w.ext[0]
	s0.ClearAll()
	s0.SetRange(0, int(v)+1)
	e0.ClearAll()
	for _, u := range w.adj[v] {
		if u > v {
			e0.Set(int(u))
		}
		s0.Set(int(u))
	}
	w.sub[0] = v
	w.extend(0)
}

// extend grows the subgraph from depth d (sub[0..d] placed, ext[d] and
// seen[d] valid). The last level short-circuits: with one vertex
// missing, every extension candidate completes a subgraph, so it emits
// straight off the bitset instead of recursing.
func (w *walker) extend(d int) {
	if d+2 == w.k {
		w.ext[d].ForEach(func(u int) bool {
			w.sub[d+1] = int32(u)
			w.emit()
			return !w.aborted
		})
		return
	}
	e := w.ext[d]
	for u := e.First(); u >= 0; u = e.Next(u + 1) {
		if w.poll() {
			return
		}
		// Pop u: later siblings must not see it (ESU's exactly-once
		// guarantee), and the child extension below starts from the
		// remaining candidates.
		e.Clear(u)
		w.sub[d+1] = int32(u)
		// Child candidates: the remaining siblings plus u's exclusive
		// neighborhood (N(u) minus everything already visited or ≤ root).
		ne, ns := w.ext[d+1], w.seen[d+1]
		ne.Copy(e)
		ns.Copy(w.seen[d])
		for _, x := range w.adj[u] {
			if !ns.Test(int(x)) {
				ns.Set(int(x))
				ne.Set(int(x))
			}
		}
		w.extend(d + 1)
		if w.aborted {
			return
		}
	}
}

// emit classifies the completed subgraph in sub[0..k-1] and counts it.
func (w *walker) emit() {
	if w.poll() {
		return
	}
	w.subgraphs++
	w.counts[w.classify()]++
}

// classify resolves the isomorphism class of the current subgraph via
// the memo: the discovery-order key is built once, and only a memo miss
// pays for materializing the induced subgraph and canonizing it.
func (w *walker) classify() *classInfo {
	for i := 0; i < w.k; i++ {
		w.pos[w.sub[i]] = int32(i)
	}
	key := w.buildKey()
	ci := w.memo.lookup(key)
	if ci == nil {
		w.misses++
		ci = w.memo.insert(key, w.buildSubgraph())
	} else {
		w.hits++
	}
	for i := 0; i < w.k; i++ {
		w.pos[w.sub[i]] = -1
	}
	return ci
}

// buildKey serializes the induced subgraph in discovery order: the k
// node labels, then for each ordered position pair (i,j) — self-loops
// included — the sorted multiset of edge labels from sub[i] to sub[j].
// Equal keys mean identical labeled adjacency under the identity map on
// positions, so the key safely proxies the class; it is *not*
// relabeling-invariant, which is exactly why it is cheap. Requires pos
// to be set for the current sub.
func (w *walker) buildKey() []byte {
	k := w.k
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	key := w.key[:0]
	for i := 0; i < k; i++ {
		key = binary.AppendVarint(key, int64(w.g.NodeLabel(w.sub[i])))
	}
	for i := 0; i < k; i++ {
		v := w.sub[i]
		adjRow := w.g.OutNeighbors(v)
		labs := w.g.OutEdgeLabels(v)
		for t, u := range adjRow {
			if j := w.pos[u]; j >= 0 {
				w.buckets[i*k+int(j)] = append(w.buckets[i*k+int(j)], labs[t])
			}
		}
	}
	for i := range w.buckets {
		b := w.buckets[i]
		slices.Sort(b)
		key = binary.AppendUvarint(key, uint64(len(b)))
		for _, l := range b {
			key = binary.AppendVarint(key, int64(l))
		}
	}
	w.key = key
	return key
}

// buildSubgraph materializes the induced subgraph on sub[0..k-1] in
// discovery order, keeping directions, labels, self-loops and parallel
// edges. Requires pos to be set.
func (w *walker) buildSubgraph() *graph.Graph {
	k := w.k
	b := graph.NewBuilder(k, k)
	for i := 0; i < k; i++ {
		b.AddNode(w.g.NodeLabel(w.sub[i]))
	}
	for i := 0; i < k; i++ {
		v := w.sub[i]
		adjRow := w.g.OutNeighbors(v)
		labs := w.g.OutEdgeLabels(v)
		for t, u := range adjRow {
			if j := w.pos[u]; j >= 0 {
				b.AddEdge(int32(i), j, labs[t])
			}
		}
	}
	return b.MustBuild()
}

// classInfo is the unique record of one isomorphism class.
type classInfo struct {
	enc  []byte
	hash uint64
	rep  *graph.Graph
}

// memoShards spreads the discovery-order map over independent locks;
// 32 is far beyond any worker count this library configures.
const memoShards = 32

// memoBudget bounds, in approximate bytes, what a memo may hold and
// still be kept for later runs; keyCost and classCost are the charges
// on top of a key's and an encoding's own bytes (map entry, string
// header; classInfo and its k-node representative graph). The k=4 memo
// of the largest PDBSv1-shaped target at scale 0.1 (164 classes)
// charges about 120 KB.
const (
	memoBudget = 1 << 20
	keyCost    = 48
	classCost  = 512
)

// Memos keeps one class memo per K across runs, for one label space:
// discovery-order keys and canonical encodings depend only on the
// labelled subgraph, so a memo stays valid across graph versions. The
// zero value is ready to use and safe for concurrent runs.
//
// Each run pins one memo for its whole duration: two classInfos for one
// class would split its count, so a memo is never cleared under a
// running census. A memo that outgrows the budget keeps serving the
// runs that pinned it; the next run pins a fresh one, and a run that
// finishes on an overgrown memo drops it, so what Memos retains stays
// bounded.
type Memos struct {
	budget int64 // 0 means memoBudget
	byK    [MaxK + 1]atomic.Pointer[memo]
}

// pin returns the memo a run at k classifies through; a nil *Memos
// gives the run a memo of its own.
func (s *Memos) pin(k int) *memo {
	if s == nil {
		return newMemo(memoBudget)
	}
	budget := s.budget
	if budget == 0 {
		budget = memoBudget
	}
	for {
		m := s.byK[k].Load()
		if m != nil && !m.full() {
			return m
		}
		fresh := newMemo(budget)
		if s.byK[k].CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}

// unpin ends a run's use of m, dropping m from s if it outgrew the
// budget and no later run has replaced it yet.
func (s *Memos) unpin(k int, m *memo) {
	if s != nil && m.full() {
		s.byK[k].CompareAndSwap(m, nil)
	}
}

// memo is the two-level concurrent classifier: a sharded map from
// discovery-order key to classInfo (the hot path — an RLock and a map
// probe), backed by a registry keyed by canonical encoding that makes
// classInfo unique per class no matter how many discovery orders reach
// it. charge sums the approximate bytes of both levels.
type memo struct {
	shards [memoShards]memoShard

	classMu sync.Mutex
	classes map[string]*classInfo

	charge atomic.Int64
	budget int64
}

type memoShard struct {
	mu sync.RWMutex
	m  map[string]*classInfo
}

func newMemo(budget int64) *memo {
	m := &memo{classes: make(map[string]*classInfo), budget: budget}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*classInfo)
	}
	return m
}

// full reports the memo outgrew its budget.
func (m *memo) full() bool { return m.charge.Load() > m.budget }

func (m *memo) shard(key []byte) *memoShard {
	return &m.shards[graph.HashBytes(key)%memoShards]
}

func (m *memo) lookup(key []byte) *classInfo {
	sh := m.shard(key)
	sh.mu.RLock()
	ci := sh.m[string(key)] // string(key) in a map index does not allocate
	sh.mu.RUnlock()
	return ci
}

// insert canonizes sub, dedups the class through the encoding registry,
// and publishes the discovery-order key. Two workers racing on the same
// key both canonize (a benign duplicate canonization, not a correctness
// issue) and converge on one classInfo through the registry.
func (m *memo) insert(key []byte, sub *graph.Graph) *classInfo {
	enc, perm, ok := graph.CanonicalFormBudget(sub, canonBudget)
	if !ok {
		// Unreachable for k ≤ 6 (≤ 720 orderings); keep correctness
		// independent of the budget anyway.
		enc, perm = graph.CanonicalForm(sub)
	}
	m.classMu.Lock()
	ci := m.classes[string(enc)]
	if ci == nil {
		rep, err := sub.Relabel(perm)
		if err != nil {
			rep = sub // perm is a permutation by construction
		}
		ci = &classInfo{enc: enc, hash: graph.HashBytes(enc), rep: rep}
		m.classes[string(enc)] = ci
		m.charge.Add(int64(len(enc)) + classCost)
	}
	m.classMu.Unlock()

	sh := m.shard(key)
	sh.mu.Lock()
	if prior := sh.m[string(key)]; prior != nil {
		ci = prior
	} else {
		sh.m[string(key)] = ci
		m.charge.Add(int64(len(key)) + keyCost)
	}
	sh.mu.Unlock()
	return ci
}
