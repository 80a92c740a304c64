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
// touches shared state only when a map passes its cap.
//
// Classifying an emitted subgraph costs a few shifts and one map
// increment. A run first interns its graph in the memo: node labels and
// the label multisets of the arcs from one vertex to another become small
// integer codes. A walker packs an emitted subgraph's codes in discovery
// order — one node code per position, one arc code per ordered position
// pair, 0 for no arc — into a 128-bit packedKey, or, when the graph's
// codes do not fit 128 bits at K, into a wideKey of one uint32 per code,
// and counts the key in a private map. Each distinct key is resolved to
// its class once, when the run ends or the map passes its cap: through
// the memo's key level, and on a miss by decoding the key to a graph,
// canonizing it via graph.CanonicalFormBudget and deduplicating through
// a registry keyed by the canonical encoding, so distinct discovery
// orders of one class share a single classInfo and representative.
// Codes and keys depend only on the labelled subgraph, so a memo
// outlives its run: Memos keeps one per K for later runs on the same
// label space.
package census

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
	// MemoMisses counts the canonizations this run paid, one per
	// discovery-order key the memo did not know; every other subgraph
	// is a MemoHit, so MemoHits + MemoMisses == Subgraphs.
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

	adj := m.adjacency(g)
	cancelled := func() bool { return ctx.Err() != nil }
	walkers := make([]*walker, max(1, min(opts.Workers, n)))
	for i := range walkers {
		walkers[i] = newWalker(adj, opts.K, m, cancelled)
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

// gather resolves each walker's remaining keys and reduces the
// per-walker class counts into the Result.
func gather(res *Result, walkers []*walker, perWorker bool) {
	total := make(map[*classInfo]int64)
	if perWorker {
		res.PerWorkerSubgraphs = make([]int64, len(walkers))
	}
	for i, w := range walkers {
		w.flush()
		if perWorker {
			res.PerWorkerSubgraphs[i] = w.subgraphs
		}
		res.Subgraphs += w.subgraphs
		res.MemoMisses += w.misses
		for ci, c := range w.classes {
			total[ci] += c
		}
		if w.aborted {
			res.Aborted = true
		}
	}
	res.MemoHits = res.Subgraphs - res.MemoMisses
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

// adjacency is a run's graph as the walkers read it, in the memo's
// codes: per vertex, its node code, its self-loop arc code, and its
// sorted distinct neighbors (out ∪ in, itself excluded) with the arc
// codes of both directions. ESU extends over the neighbor lists, so a
// step costs O(degree) and a run allocates O(n + m), never n² bits.
type adjacency struct {
	node []uint32 // node code per vertex, from 0
	loop []uint32 // arc code of each vertex's self-loops, 0 for none
	at   []int32  // vertex v's neighbors are arcs[at[v]:at[v+1]]
	arcs []arc
	// nodeBits and arcBits are the widths of the largest node and arc
	// code the graph uses; packed reports that k node codes and k² arc
	// codes at those widths fit a packedKey.
	nodeBits, arcBits uint
	packed            bool
}

// arc is one neighbor x of a vertex v: out is the arc code of the arcs
// v → x, in that of the arcs x → v (each 0 for none).
type arc struct {
	to      int32
	out, in uint32
}

func (a *adjacency) of(v int32) []arc { return a.arcs[a.at[v]:a.at[v+1]] }

// walker is one worker's ESU state: the vertex stack plus per-depth
// extension and visited-neighborhood bitsets, all allocated once, and
// the counts of the subgraph keys it emitted.
type walker struct {
	adj *adjacency
	k   int

	sub  []int32       // vertex stack, discovery order; length k
	ext  []*bitset.Set // ext[d]: extension candidates with d+1 vertices placed
	seen []*bitset.Set // seen[d]: {0..root} ∪ subgraph ∪ its neighborhood
	pos  []int32       // target node → position in sub, -1 outside

	memo *memo
	// Exactly one of packed and wide is non-nil: the run's key form.
	// Each counts the subgraphs emitted per key since the last flush.
	packed map[packedKey]int64
	wide   map[wideKey]int64
	// limit is the most keys the map holds between flushes: one memo
	// budget's worth.
	limit int
	// keys[d] is the packed key of sub[0..d]; header is the layout
	// header every packed key starts from, off[s] the bit offset of
	// wideKey slot s.
	keys    [MaxK]packedKey
	header  packedKey
	off     [wideSlots]uint
	classes map[*classInfo]int64 // flushed counts, per class

	subgraphs int64
	misses    int64 // canonizations this walker's flushes paid
	steps     int
	cancelled func() bool
	aborted   bool
}

func newWalker(adj *adjacency, k int, m *memo, cancelled func() bool) *walker {
	n := len(adj.node)
	w := &walker{
		adj:       adj,
		k:         k,
		sub:       make([]int32, k),
		ext:       make([]*bitset.Set, k),
		seen:      make([]*bitset.Set, k),
		pos:       make([]int32, n),
		memo:      m,
		classes:   make(map[*classInfo]int64),
		cancelled: cancelled,
	}
	for d := 0; d < k; d++ {
		w.ext[d] = bitset.New(n)
		w.seen[d] = bitset.New(n)
	}
	for i := range w.pos {
		w.pos[i] = -1
	}
	if !adj.packed {
		w.wide = make(map[wideKey]int64)
		w.limit = int(m.budget / wideCost)
		return w
	}
	w.packed = make(map[packedKey]int64)
	w.limit = int(m.budget / packedCost)
	w.header = packedKey{uint64(adj.nodeBits) | uint64(adj.arcBits)<<fieldBits}
	off := uint(headerBits)
	for s := range k + k*k {
		w.off[s] = off
		off += width(k, s, adj.nodeBits, adj.arcBits)
	}
	return w
}

// walk runs roots taken from the shared cursor until it passes the
// node count or the run is cancelled.
func (w *walker) walk(cursor *atomic.Int64) {
	n := int64(len(w.adj.node))
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
	for _, a := range w.adj.of(v) {
		if a.to > v {
			e0.Set(int(a.to))
		}
		s0.Set(int(a.to))
	}
	w.place(0, v)
	w.extend(0)
	w.pos[v] = -1
}

// extend grows the subgraph from depth d (sub[0..d] placed, ext[d] and
// seen[d] valid). The last level short-circuits: with one vertex
// missing, every extension candidate completes a subgraph, so it emits
// straight off the bitset instead of recursing.
func (w *walker) extend(d int) {
	if d+2 == w.k {
		w.ext[d].ForEach(func(u int) bool {
			w.place(d+1, int32(u))
			w.emit()
			w.pos[u] = -1
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
		w.place(d+1, int32(u))
		// Child candidates: the remaining siblings plus u's exclusive
		// neighborhood (N(u) minus everything already visited or ≤ root).
		ne, ns := w.ext[d+1], w.seen[d+1]
		ne.Copy(e)
		ns.Copy(w.seen[d])
		for _, a := range w.adj.of(int32(u)) {
			if x := int(a.to); !ns.Test(x) {
				ns.Set(x)
				ne.Set(x)
			}
		}
		w.extend(d + 1)
		w.pos[u] = -1
		if w.aborted {
			return
		}
	}
}

// place puts u at position d of the subgraph. On the packed path it also
// extends the key of sub[0..d-1] by u's node code and the arc codes
// between u and sub[0..d], so an emitted key costs one vertex's
// neighbor scan rather than k of them.
func (w *walker) place(d int, u int32) {
	w.sub[d] = u
	w.pos[u] = int32(d)
	if w.packed == nil {
		return
	}
	a, k := w.adj, w.k
	key := w.header
	if d > 0 {
		key = w.keys[d-1]
	}
	key.put(w.off[d], a.node[u])
	key.put(w.off[k+d*k+d], a.loop[u])
	for _, x := range a.of(u) {
		if j := int(w.pos[x.to]); j >= 0 {
			key.put(w.off[k+d*k+j], x.out)
			key.put(w.off[k+j*k+d], x.in)
		}
	}
	w.keys[d] = key
}

// emit counts the completed subgraph in sub[0..k-1] under its
// discovery-order key, flushing the key map once it passes its cap.
// Equal keys mean identical labelled adjacency under the identity map
// on positions, so a key safely proxies the class; it is *not*
// relabeling-invariant, which is exactly why it is cheap.
func (w *walker) emit() {
	if w.poll() {
		return
	}
	w.subgraphs++
	if w.packed != nil {
		w.packed[w.keys[w.k-1]]++
	} else {
		w.wide[w.wideKey()]++
	}
	if len(w.packed)+len(w.wide) > w.limit {
		w.flush()
	}
}

// wideKey returns the current subgraph's slots, for runs whose codes do
// not fit a packedKey. Requires pos to be set for the whole of sub.
func (w *walker) wideKey() wideKey {
	a, k := w.adj, w.k
	var key wideKey
	for i, v := range w.sub {
		key[i] = a.node[v]
		key[k+i*k+i] = a.loop[v]
		for _, x := range a.of(v) {
			if j := int(w.pos[x.to]); j >= 0 {
				key[k+i*k+j] = x.out
			}
		}
	}
	return key
}

// flush resolves every key counted since the last flush into classes.
func (w *walker) flush() {
	m := w.memo
	if w.packed != nil {
		w.misses += resolve(m, m.packed, packedCost, w.packed, w.classes,
			func(key packedKey) wideKey { return key.unpack(w.k) })
		clear(w.packed)
	} else {
		w.misses += resolve(m, m.wide, wideCost, w.wide, w.classes,
			func(key wideKey) wideKey { return key })
		clear(w.wide)
	}
}

// resolve adds each key's count to into under the key's class, found in
// the memo level keys or, on a miss, by canonizing the subgraph the key
// decodes to and publishing the key at the given charge. It returns
// the number of canonizations paid.
func resolve[K comparable](m *memo, keys map[K]*classInfo, cost int64, counts map[K]int64, into map[*classInfo]int64, decode func(K) wideKey) int64 {
	var missed []K
	m.mu.Lock()
	for key, c := range counts {
		if ci := keys[key]; ci != nil {
			into[ci] += c
		} else {
			missed = append(missed, key)
		}
	}
	m.mu.Unlock()
	for _, key := range missed {
		// Two walkers missing one key both canonize (a benign duplicate)
		// and converge on one classInfo through the registry.
		ci := m.class(decode(key))
		m.mu.Lock()
		if prior := keys[key]; prior != nil {
			ci = prior
		} else {
			keys[key] = ci
			m.charge.Add(cost)
		}
		m.mu.Unlock()
		into[ci] += counts[key]
	}
	return int64(len(missed))
}

// wideSlots is the number of codes a key holds at MaxK: one node code
// per position, then one arc code per ordered position pair (i, j) at
// slot k + i·k + j, self-loops on the diagonal.
const wideSlots = MaxK * (MaxK + 1)

// wideKey holds a subgraph's codes one uint32 per slot: every code fits,
// so it classifies any graph.
type wideKey [wideSlots]uint32

// packedKey holds the same slots at the narrowest widths the run's codes
// allow: a header of two 4-bit fields (node-code width, then arc-code
// width) in the low bits, then the k node codes and the k² arc codes,
// each field at its fixed width. The header makes a key
// self-describing, so keys packed at different widths never collide.
type packedKey [2]uint64

const (
	fieldBits   = 4
	headerBits  = 2 * fieldBits
	maxCodeBits = 1<<fieldBits - 1
)

// width is the packed width of slot s at k.
func width(k, s int, nodeBits, arcBits uint) uint {
	if s < k {
		return nodeBits
	}
	return arcBits
}

// put ORs v into the field at bit offset off; a field may straddle the
// two words.
func (p *packedKey) put(off uint, v uint32) {
	if off < 64 {
		p[0] |= uint64(v) << off
		p[1] |= uint64(v) >> (64 - off) // the bits past word 0, if any
	} else {
		p[1] |= uint64(v) << (off - 64)
	}
}

// get returns the w-bit field at bit offset off.
func (p packedKey) get(off, w uint) uint32 {
	var v uint64
	if off < 64 {
		v = p[0]>>off | p[1]<<(64-off)
	} else {
		v = p[1] >> (off - 64)
	}
	return uint32(v & (1<<w - 1))
}

// unpack returns the slots of a key packed at k.
func (p packedKey) unpack(k int) wideKey {
	nodeBits, arcBits := uint(p[0]&maxCodeBits), uint(p[0]>>fieldBits&maxCodeBits)
	var key wideKey
	off := uint(headerBits)
	for s := range k + k*k {
		w := width(k, s, nodeBits, arcBits)
		key[s] = p.get(off, w)
		off += w
	}
	return key
}

// classInfo is the unique record of one isomorphism class.
type classInfo struct {
	enc  []byte
	hash uint64
	rep  *graph.Graph
}

// memoBudget bounds, in approximate bytes, what a memo may hold and
// still be kept for later runs. packedCost and wideCost are the charges
// of one key (map entry and key), codeCost that of one interned code on
// top of its labels, classCost that of one class on top of its
// encoding (classInfo and its k-node representative graph). The k=4
// memo of the largest PDBSv1-shaped target at scale 0.1 (164 classes
// under 420 keys) charges about 110 KB.
const (
	memoBudget = 1 << 20
	packedCost = 48
	wideCost   = 32 + 4*wideSlots
	codeCost   = 64
	classCost  = 512
)

// Memos keeps one class memo per K across runs, for one label space:
// codes, keys and canonical encodings depend only on the labelled
// subgraph, so a memo stays valid across graph versions. The zero value
// is ready to use and safe for concurrent runs.
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
		return newMemo(k, memoBudget)
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
		fresh := newMemo(k, budget)
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

// memo is one K's classifier: the interned codes, the two key levels
// mapping packed and wide keys to classes, and the registry keyed by
// canonical encoding that makes classInfo unique per class no matter
// how many keys reach it. Runs touch it only to intern labels and to
// resolve keys, so one mutex guards it all; charge sums the approximate
// bytes it holds.
type memo struct {
	k      int
	budget int64
	charge atomic.Int64

	mu         sync.Mutex
	nodeCodes  map[graph.Label]uint32 // node label → node code
	nodeLabels []graph.Label          // node code → node label
	arcCodes   map[string]uint32      // varint sorted arc labels → arc code
	arcLabels  [][]graph.Label        // arc code − 1 → sorted arc labels
	packed     map[packedKey]*classInfo
	wide       map[wideKey]*classInfo
	classes    map[string]*classInfo // canonical encoding → class
}

func newMemo(k int, budget int64) *memo {
	return &memo{
		k:         k,
		budget:    budget,
		nodeCodes: make(map[graph.Label]uint32),
		arcCodes:  make(map[string]uint32),
		packed:    make(map[packedKey]*classInfo),
		wide:      make(map[wideKey]*classInfo),
		classes:   make(map[string]*classInfo),
	}
}

// full reports the memo outgrew its budget.
func (m *memo) full() bool { return m.charge.Load() > m.budget }

// nodeCode returns the code of node label l, interning it on first
// sight.
func (m *memo) nodeCode(l graph.Label) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	code, ok := m.nodeCodes[l]
	if !ok {
		code = uint32(len(m.nodeLabels))
		m.nodeCodes[l] = code
		m.nodeLabels = append(m.nodeLabels, l)
		m.charge.Add(codeCost)
	}
	return code
}

// arcCode returns the code of the arcs from one vertex to another, by
// the multiset of their labels, interning it on first sight; no arcs
// have code 0.
func (m *memo) arcCode(labels []graph.Label) uint32 {
	if len(labels) == 0 {
		return 0
	}
	set := slices.Clone(labels)
	slices.Sort(set)
	var enc []byte
	for _, l := range set {
		enc = binary.AppendVarint(enc, int64(l))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	code, ok := m.arcCodes[string(enc)]
	if !ok {
		m.arcLabels = append(m.arcLabels, set)
		code = uint32(len(m.arcLabels))
		m.arcCodes[string(enc)] = code
		m.charge.Add(codeCost + int64(len(enc)+4*len(set)))
	}
	return code
}

// labelCache is a run's direct-mapped cache in front of the memo's
// label codes: a graph uses few labels, so nearly every lookup skips
// the lock and the map.
type labelCache [64]struct {
	label graph.Label
	code  uint32 // the code + 1; 0 marks an empty entry
}

func (c *labelCache) get(l graph.Label, intern func(graph.Label) uint32) uint32 {
	e := &c[uint32(l)%uint32(len(c))]
	if e.code == 0 || e.label != l {
		e.label, e.code = l, intern(l)+1
	}
	return e.code - 1
}

// adjacency returns g in the memo's codes, interning the node labels
// and arc-label multisets the memo has not met, and decides whether
// the run's keys pack.
func (m *memo) adjacency(g *graph.Graph) *adjacency {
	n := int32(g.NumNodes())
	a := &adjacency{
		node: make([]uint32, n),
		loop: make([]uint32, n),
		at:   make([]int32, n+1),
		arcs: make([]arc, 0, g.NumEdges()),
	}
	var nodes, lone labelCache
	nodeCode := m.nodeCode
	loneCode := func(l graph.Label) uint32 { return m.arcCode([]graph.Label{l}) }
	// code is the arc code of the parallel arcs with labels labs.
	code := func(labs []graph.Label) uint32 {
		if len(labs) == 1 {
			return lone.get(labs[0], loneCode)
		}
		return m.arcCode(labs)
	}
	var maxNode, maxArc uint32
	for v := range n {
		a.node[v] = nodes.get(g.NodeLabel(v), nodeCode)
		maxNode = max(maxNode, a.node[v])
		// Merge the sorted out- and in-lists, one entry per neighbor.
		to, toLab := g.OutNeighbors(v), g.OutEdgeLabels(v)
		from, fromLab := g.InNeighbors(v), g.InEdgeLabels(v)
		for i, j := 0, 0; i < len(to) || j < len(from); {
			x := int32(math.MaxInt32)
			if i < len(to) {
				x = to[i]
			}
			if j < len(from) {
				x = min(x, from[j])
			}
			i2, j2 := i, j
			for i2 < len(to) && to[i2] == x {
				i2++
			}
			for j2 < len(from) && from[j2] == x {
				j2++
			}
			out, in := code(toLab[i:i2]), code(fromLab[j:j2])
			maxArc = max(maxArc, out, in)
			if x == v {
				a.loop[v] = out
			} else {
				a.arcs = append(a.arcs, arc{to: x, out: out, in: in})
			}
			i, j = i2, j2
		}
		a.at[v+1] = int32(len(a.arcs))
	}
	a.nodeBits, a.arcBits = uint(bits.Len32(maxNode)), uint(bits.Len32(maxArc))
	a.packed = a.nodeBits <= maxCodeBits && a.arcBits <= maxCodeBits &&
		headerBits+uint(m.k)*a.nodeBits+uint(m.k*m.k)*a.arcBits <= 128
	return a
}

// subgraph builds the labelled subgraph a key's slots describe, in
// discovery order.
func (m *memo) subgraph(key wideKey) *graph.Graph {
	k := m.k
	m.mu.Lock()
	defer m.mu.Unlock()
	b := graph.NewBuilder(k, k*k)
	for i := range k {
		b.AddNode(m.nodeLabels[key[i]])
	}
	for s, code := range key[k : k+k*k] {
		if code != 0 {
			for _, l := range m.arcLabels[code-1] {
				b.AddEdge(int32(s/k), int32(s%k), l)
			}
		}
	}
	return b.MustBuild()
}

// class canonizes the subgraph a key decodes to and returns its class,
// registering the class on first sight.
func (m *memo) class(key wideKey) *classInfo {
	sub := m.subgraph(key)
	enc, perm, ok := graph.CanonicalFormBudget(sub, canonBudget)
	if !ok {
		// Unreachable for k ≤ 6 (≤ 720 orderings); keep correctness
		// independent of the budget anyway.
		enc, perm = graph.CanonicalForm(sub)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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
	return ci
}
