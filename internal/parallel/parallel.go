// Package parallel implements the paper's shared-memory parallel subgraph
// enumeration (Kimmig et al. §3) on top of the work-stealing runtime in
// internal/steal and the preprocessing/feasibility rules in internal/ri.
//
// Task representation (§3.1): a task is the pair (ordering position,
// candidate target node) — "we effectively represent a task by the node
// pair (µ_i, v_t)". A worker runs its task depth-first like the
// sequential searcher, maintaining its mapping incrementally (§3.2(i)),
// and keeps one frame per ordering position: the consistent candidates
// of that position under the current mapping prefix, tried in order.
// Those frames are the worker's private deque. Tasks exist only where a
// thief asks for one: the victim's Split hands over up to TaskGroupSize
// untried candidates of its shallowest frame — the back of the deque,
// closest to the search root (§3.2(ii)) — with a copy of the mapping
// prefix below them, the only mapping copies in the system. Consistency
// of every candidate is checked before it enters a frame, so stolen
// tasks are rarely dead ends (§3.1).
//
// Task coalescing (§3.4): TaskGroupSize is how many candidates one steal
// moves, trading granularity against steal overhead (evaluated in the
// paper's Fig 4).
//
// Initial work distribution (§3.3): the consistent children of the search
// root (candidates for µ_1) are dealt round-robin in groups of
// TaskGroupSize before the workers start; each worker's share becomes its
// root frame.
package parallel

import (
	"context"
	"sync/atomic"
	"time"

	"parsge/internal/graph"
	"parsge/internal/order"
	"parsge/internal/ri"
	"parsge/internal/steal"
)

// MaxGroupSize caps task coalescing; the paper evaluates group sizes up
// to 16 (Fig 4).
const MaxGroupSize = 16

// DefaultGroupSize is the task group size used when Options leaves it 0;
// the paper settles on four ("For our remaining experiments, we use task
// group size four", §5.2.2).
const DefaultGroupSize = 4

// Options configures a parallel enumeration run.
type Options struct {
	// Workers is the number of workers; 0 means 1.
	Workers int
	// TaskGroupSize is the coalescing granularity G in [1, MaxGroupSize]:
	// the candidates one steal hands over, and the size of the root
	// groups the initial distribution deals. 0 means DefaultGroupSize.
	TaskGroupSize int
	// DisableStealing turns load balancing off (Fig 3 ablation): workers
	// process only their share of the initial distribution.
	DisableStealing bool
	// StealFromFront makes victims split their deepest frame (the front
	// of the deque) instead of the shallowest — an ablation violating
	// §3.2(ii).
	StealFromFront bool
	// EagerCopy copies the mapping prefix for every group of
	// TaskGroupSize candidates of every frame a worker fills, stolen or
	// not. This reproduces the overhead of the Cilk++ VF2
	// parallelization the paper criticizes ("the amount of state copied
	// to enable work stealing results in a lot of overhead", §2.2.2) and
	// is used by the ablation bench.
	EagerCopy bool
	// NoInitialDistribution gives every root candidate to worker 0
	// instead of dealing them round-robin — the §3.3 ablation: all
	// other workers must then bootstrap via stealing.
	NoInitialDistribution bool
	// Seed seeds victim selection.
	Seed int64
	// Limit stops the run after at least this many matches (0 = all).
	Limit int64
	// Visit, when non-nil, is called for every match with the mapping
	// indexed by pattern node id. It is invoked concurrently from
	// worker goroutines and must be safe for concurrent use; the slice
	// is reused, copy to retain. Returning false cancels the run.
	Visit func(mapping []int32) bool
	// Ctx, when non-nil, cooperatively aborts the run when cancelled
	// (the harness derives a context.WithTimeout from it for the 180 s
	// time limit of the paper's setup). Busy workers poll the done
	// channel whenever their state count crosses a poll boundary, as the
	// sequential searcher does; parked workers wake on it.
	Ctx context.Context
	// Arena, when non-nil and sized for the prepared target, supplies
	// each worker's target-sized used-set from a shared pool instead of
	// allocating per run — the per-worker scratch reuse of the session
	// API.
	Arena *ri.Arena
}

func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.TaskGroupSize <= 0 {
		o.TaskGroupSize = DefaultGroupSize
	}
	if o.TaskGroupSize > MaxGroupSize {
		o.TaskGroupSize = MaxGroupSize
	}
	return o
}

// Result reports a parallel run.
type Result struct {
	// Matches is the number of isomorphic subgraphs found.
	Matches int64
	// States is the total number of search states checked across all
	// workers (the paper's search space size), counted by the rule
	// ri.Counter states: every distinct neighbor of the parent image is
	// one state.
	States int64
	// PerWorkerStates breaks States down by worker — its standard
	// deviation is the load-balance metric of Fig 3.
	PerWorkerStates []int64
	// DepthStates breaks States down by ordering position (summed over
	// workers): the search profile.
	DepthStates []int64
	// Steals is the number of tasks moved between workers (Fig 4).
	Steals int64
	// PreprocTime is the preprocessing time of the Prepared instance.
	PreprocTime time.Duration
	// MatchTime is the wall time of the parallel search phase.
	MatchTime time.Duration
	// Aborted reports an external cancellation (timeout) or a Visit
	// callback stop; Limit-triggered stops are not aborts.
	Aborted bool
	// Unsatisfiable is inherited from preprocessing.
	Unsatisfiable bool
}

// task is what a worker runs and a thief receives: consistent candidates
// for one ordering position, all valid under the same mapping prefix.
type task struct {
	depth  int32   // ordering position of every candidate in cands
	prefix []int32 // mapping of positions [0, depth); nil at the root
	cands  []int32
}

// frame is one ordering position's share of a worker's candidate stack:
// stack[next:hi] are the candidates not yet tried.
type frame struct{ next, hi int32 }

// workerState is the per-worker search state: the incrementally
// maintained partial mapping of §3.2(i) and the frames of the running
// task.
type workerState struct {
	mapped []int32 // ordering position → target node (valid below depth)
	used   []bool  // target node → used by current mapping
	depth  int     // positions [0, depth) are mapped and marked used

	// stack holds the frames of positions base..top back to back; a
	// frame is refilled only after every deeper one ran dry.
	stack     []int32
	frames    []frame // by ordering position
	base, top int     // the task's position and the deepest live frame
	untried   int     // candidates left in frames base..top

	ri.Counter
	matches  int64
	visitBuf []int32 // pattern node id → target node, for Visit
	eager    []int32 // the latest EagerCopy prefix copy

	_ [64]byte // keeps the next worker's state off this one's cache lines
}

// engine implements steal.Runner[task].
type engine struct {
	p    *ri.Prepared
	opts Options
	done <-chan struct{} // Ctx's done channel (nil without one)
	ws   []*workerState
	rt   *steal.Runtime[task]

	globalMatches atomic.Int64 // only maintained when Limit > 0
	limitHit      atomic.Bool
	visitStop     atomic.Bool
}

// stackHint is the initial capacity of a worker's candidate stack; it
// grows by append when a run needs more.
const stackHint = 256

// lineBytes is the cache line size the per-worker arrays are spaced by
// (the dominant size; the exact value only affects performance).
const lineBytes = 64

// Enumerate runs the parallel search over a prepared instance.
func Enumerate(p *ri.Prepared, opts Options) (res Result) {
	opts = opts.normalized()
	res = Result{
		PreprocTime:     p.PreprocTime,
		Unsatisfiable:   p.Unsat,
		PerWorkerStates: make([]int64, opts.Workers),
	}
	start := time.Now()
	defer func() { res.MatchTime = time.Since(start) }()

	if p.Unsat || p.NumPositions() == 0 {
		return res
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		res.Aborted = true
		return res
	}

	e := &engine{p: p, opts: opts, ws: make([]*workerState, opts.Workers)}
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}
	arena := opts.Arena
	if arena != nil && arena.NumNodes() != p.Target.NumNodes() {
		arena = nil // built for a different target: ignore
	}
	// Each worker's arrays are cut from one block per element type with
	// a cache line (lineBytes) between workers, so that no two workers
	// write to one line.
	n, np := p.NumPositions(), p.Pattern.NumNodes()
	n32 := n + np + stackHint // mapped, visitBuf, stack
	s32, s64 := n32+lineBytes/4, n+lineBytes/8
	ints := make([]int32, opts.Workers*s32)
	depths := make([]int64, opts.Workers*s64)
	frames := make([]frame, opts.Workers*s64) // 8-byte elements, like depths
	for i := range e.ws {
		var used []bool
		if arena != nil {
			used = arena.AcquireUsed()
		} else {
			used = make([]bool, p.Target.NumNodes())
		}
		w, d := ints[i*s32:i*s32+n32:i*s32+n32], i*s64
		e.ws[i] = &workerState{
			mapped:   w[:n:n],
			visitBuf: w[n : n+np : n+np],
			stack:    w[n+np : n+np],
			used:     used,
			frames:   frames[d : d+n : d+n],
			Counter:  ri.Counter{Depth: depths[d : d+n : d+n]},
		}
	}
	if arena != nil {
		// Workers stop wherever the schedule left them, so their
		// used-sets still carry the bits of the current partial mapping;
		// clear exactly those before the buffers go back to the pool.
		defer func() {
			for _, ws := range e.ws {
				for i := 0; i < ws.depth; i++ {
					ws.used[ws.mapped[i]] = false
				}
				arena.ReleaseUsed(ws.used)
			}
		}()
	}

	rt, err := steal.New(steal.Config{
		Workers:  opts.Workers,
		Stealing: !opts.DisableStealing,
		Seed:     opts.Seed,
	}, e)
	if err != nil {
		// normalized() guarantees Workers ≥ 1; steal.New cannot fail.
		panic(err)
	}
	e.rt = rt

	e.seedInitialTasks()

	// Parked workers watch Ctx through the runtime; busy workers poll
	// its done channel inline via shouldStop.
	res.Steals = rt.Run(opts.Ctx).TotalSteals()

	res.DepthStates = make([]int64, p.NumPositions())
	for i, ws := range e.ws {
		res.PerWorkerStates[i] = ws.States
		res.States += ws.States
		res.Matches += ws.matches
		for d, c := range ws.Depth {
			res.DepthStates[d] += c
		}
	}
	res.Aborted = rt.Cancelled() && !e.limitHit.Load()
	if e.visitStop.Load() {
		res.Aborted = true
	}
	return res
}

// EnumerateGraphs is the convenience entry point combining ri.Prepare and
// Enumerate.
func EnumerateGraphs(gp, gt *graph.Graph, prep ri.Options, opts Options) (Result, error) {
	p, err := ri.Prepare(gp, gt, prep)
	if err != nil {
		return Result{}, err
	}
	return Enumerate(p, opts), nil
}

// seedInitialTasks collects the consistent candidates of µ_1 and deals
// them round-robin in groups of TaskGroupSize (§3.3); each worker's
// groups, in dealing order, form one root task. The consistency checks
// are counted against worker 0's state counter.
func (e *engine) seedInitialTasks() {
	ws0 := e.ws[0]
	n := e.p.Target.NumNodes()
	if e.p.Doms != nil {
		n = e.p.Doms.Of(e.p.Ord.Seq[0]).Count()
	}
	roots := make([]int32, 0, n)
	e.p.RootCandidates(func(vt int32) bool {
		ws0.Add(0, 1)
		if e.p.Feasible(0, vt, ws0.mapped, ws0.used) {
			roots = append(roots, vt)
		}
		return true
	})
	workers, g := e.opts.Workers, e.opts.TaskGroupSize
	if workers == 1 || e.opts.NoInitialDistribution {
		if len(roots) > 0 {
			e.rt.Seed(0, task{cands: roots})
		}
		return
	}
	dealt := make([]int32, 0, len(roots))
	for w := 0; w < workers; w++ {
		lo := len(dealt)
		for i := w * g; i < len(roots); i += workers * g {
			dealt = append(dealt, roots[i:min(i+g, len(roots))]...)
		}
		if len(dealt) > lo {
			e.rt.Seed(w, task{cands: dealt[lo:]})
		}
	}
}

// Execute runs task t depth-first on worker w: install its prefix, make
// its candidates the base frame, and search.
func (e *engine) Execute(w *steal.Worker[task], t task) {
	ws := e.ws[w.ID]
	// A worker runs its next task only after the last one ran dry, so no
	// frame depends on the mapping it discards here.
	for i := 0; i < ws.depth; i++ {
		ws.used[ws.mapped[i]] = false
	}
	copy(ws.mapped, t.prefix)
	for _, vt := range t.prefix {
		ws.used[vt] = true
	}
	ws.depth = int(t.depth)
	ws.base, ws.top = ws.depth, ws.depth
	ws.stack = append(ws.stack[:0], t.cands...)
	ws.frames[ws.base] = frame{next: 0, hi: int32(len(t.cands))}
	ws.untried = len(t.cands)
	e.search(w, ws)
}

// search is the worker's DFS over its frames, the sequential searcher's
// order with an explicit stack. Each candidate taken maps its position
// and either emits a match or fills the next position's frame; after a
// fill, an expansion, the worker polls for thieves once. It returns when
// the base frame runs dry or the run must stop.
func (e *engine) search(w *steal.Worker[task], ws *workerState) {
	last := e.p.NumPositions() - 1
	d := ws.base
	for {
		f := &ws.frames[d]
		if f.next == f.hi {
			if d == ws.base {
				return
			}
			d--
			continue
		}
		vt := ws.stack[f.next]
		f.next++
		ws.untried--
		// Rewind the mapping to position d (§3.2(i): entries below d stay
		// valid, since frames are tried depth-first).
		for ws.depth > d {
			ws.depth--
			ws.used[ws.mapped[ws.depth]] = false
		}
		ws.mapped[d] = vt
		ws.used[vt] = true
		ws.depth = d + 1
		if d == last {
			if !e.emit(ws) {
				return
			}
		} else {
			lo := f.hi
			ws.stack = ws.stack[:lo]
			if !e.fill(ws, d+1) {
				return
			}
			d++
			ws.frames[d] = frame{next: lo, hi: int32(len(ws.stack))}
			ws.untried += len(ws.stack) - int(lo)
			if e.opts.EagerCopy {
				for i := int(lo); i < len(ws.stack); i += e.opts.TaskGroupSize {
					ws.eager = append([]int32(nil), ws.mapped[:d]...)
				}
			}
			ws.top = d
			w.Poll(ws.untried > 0)
		}
	}
}

// fill appends the consistent candidates of position pos under the
// current mapping to ws.stack, counting states as the sequential loops
// do. It reports false when the run must stop.
func (e *engine) fill(ws *workerState, pos int) bool {
	p := e.p
	check := func(cand int32) bool {
		if p.Feasible(pos, cand, ws.mapped, ws.used) {
			ws.stack = append(ws.stack, cand)
		}
		return true
	}
	// tryCandidate first counts cand as one state, as the one-at-a-time
	// loops do.
	tryCandidate := func(cand int32) bool {
		if ws.Add(pos, 1) && e.shouldStop() {
			return false
		}
		return check(cand)
	}

	if parent := p.ParentPos(pos); parent != order.NoParent {
		v := ws.mapped[parent]
		adj := p.Candidates(pos, v)
		if row := p.ParentRow(pos, v, len(adj)); row != nil {
			return p.ScanRow(&ws.Counter, pos, row, e.shouldStop, check)
		}
		if p.Doms != nil {
			// A neighbor outside D(u) is a state that fails at once.
			for i, cand := range adj {
				if i > 0 && adj[i-1] == cand {
					continue
				}
				if !p.InDomain(pos, cand) {
					if ws.Add(pos, 1) && e.shouldStop() {
						return false
					}
					continue
				}
				if !tryCandidate(cand) {
					return false
				}
			}
			return true
		}
		for i, cand := range adj {
			if i > 0 && adj[i-1] == cand {
				continue // parallel target edges: same candidate node
			}
			if !tryCandidate(cand) {
				return false
			}
		}
		return true
	}
	ok := true
	if p.Doms != nil {
		p.Doms.Of(p.Ord.Seq[pos]).ForEach(func(i int) bool {
			ok = tryCandidate(int32(i))
			return ok
		})
		return ok
	}
	// Parentless position without domains: label bucket (with a shared
	// target index) or every target node.
	p.FreeCandidates(pos, func(cand int32) bool {
		ok = tryCandidate(cand)
		return ok
	})
	return ok
}

// emit records a complete match on the worker and handles Limit/Visit.
// It reports false when the run must stop, a stop another worker caused
// included.
func (e *engine) emit(ws *workerState) bool {
	if e.rt.Cancelled() {
		return false
	}
	ws.matches++
	if e.opts.Visit != nil {
		for i, vt := range ws.mapped {
			ws.visitBuf[e.p.Ord.Seq[i]] = vt
		}
		if !e.opts.Visit(ws.visitBuf) {
			e.visitStop.Store(true)
			e.rt.Cancel()
			return false
		}
	}
	if e.opts.Limit > 0 {
		if e.globalMatches.Add(1) >= e.opts.Limit {
			e.limitHit.Store(true)
			e.rt.Cancel()
			return false
		}
	}
	return true
}

// shouldStop polls the context's done channel from the expansion hot loop.
func (e *engine) shouldStop() bool {
	if e.rt.Cancelled() {
		return true
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.rt.Cancel()
			return true
		default:
		}
	}
	return false
}

// Split hands a thief up to TaskGroupSize untried candidates from the
// end of the victim's shallowest non-empty frame (its deepest under
// StealFromFront), with a copy of the mapping prefix below them — the
// only mapping copy in the private-deque scheme ("our parallelization
// copies partial solutions only for stolen tasks, not those that remain
// private", §2.2.2). The candidate being explored at each position
// precedes its frame's untried range, so it is never handed over.
func (e *engine) Split(victim *steal.Worker[task]) (task, bool) {
	ws := e.ws[victim.ID]
	if ws.untried == 0 {
		return task{}, false
	}
	d, step := ws.base, 1
	if e.opts.StealFromFront {
		d, step = ws.top, -1
	}
	for ; ws.frames[d].next == ws.frames[d].hi; d += step {
	}
	f := &ws.frames[d]
	k := min(int(f.hi-f.next), e.opts.TaskGroupSize)
	f.hi -= int32(k)
	ws.untried -= k
	buf := make([]int32, d+k)
	copy(buf, ws.mapped[:d])
	copy(buf[d:], ws.stack[f.hi:int(f.hi)+k])
	return task{depth: int32(d), prefix: buf[:d:d], cands: buf[d:]}, true
}
