// Package parallel implements the paper's shared-memory parallel subgraph
// enumeration (Kimmig et al. §3) on top of the work-stealing runtime in
// internal/steal and the preprocessing/feasibility rules in internal/ri.
//
// Task representation (§3.1): a task is the pair (ordering position,
// candidate target node) — "we effectively represent a task by the node
// pair (µ_i, v_t)". Tasks do not carry the partial mapping; each worker
// maintains its mapping incrementally, which is always valid for private
// tasks thanks to the deque's depth-first discipline (§3.2(i)). Only when
// a task group is stolen does the victim attach a copy of the mapping
// prefix below it (§3.2(ii)) — the only mapping copies in the system.
// Consistency of every task is checked *before* it is spawned, so stolen
// tasks are rarely dead ends (§3.1).
//
// Task coalescing (§3.4): up to Options.TaskGroupSize sibling tasks are
// packed into one deque entry; steals move whole groups, trading
// granularity against steal overhead (evaluated in the paper's Fig 4).
//
// Initial work distribution (§3.3): the consistent children of the search
// root (candidates for µ_1) are dealt round-robin into all workers'
// deques before the workers start.
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
// to 16 (Fig 4). The fixed-size array keeps task groups allocation-free.
const MaxGroupSize = 16

// DefaultGroupSize is the task group size used when Options leaves it 0;
// the paper settles on four ("For our remaining experiments, we use task
// group size four", §5.2.2).
const DefaultGroupSize = 4

// Options configures a parallel enumeration run.
type Options struct {
	// Workers is the number of workers; 0 means 1.
	Workers int
	// TaskGroupSize is the coalescing granularity G in [1, MaxGroupSize];
	// 0 means DefaultGroupSize.
	TaskGroupSize int
	// DisableStealing turns load balancing off (Fig 3 ablation): workers
	// process only their share of the initial distribution.
	DisableStealing bool
	// StealFromFront makes victims service steals from the front (deep
	// end) of their deque — an ablation violating §3.2(ii).
	StealFromFront bool
	// EagerCopy attaches a copy of the mapping prefix to every spawned
	// task group, stolen or not. This reproduces the overhead of the
	// Cilk++ VF2 parallelization the paper criticizes ("the amount of
	// state copied to enable work stealing results in a lot of
	// overhead", §2.2.2) and is used by the ablation bench.
	EagerCopy bool
	// NoInitialDistribution seeds all root tasks into worker 0's deque
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
	// channel at the same low frequency the previous atomic-flag design
	// used; idle workers are woken by the steal runtime's own watcher.
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
	// Steals is the number of task groups moved between workers (Fig 4).
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

// taskGroup packs up to MaxGroupSize sibling tasks: candidate target
// nodes for the same ordering position, valid under the same mapping
// prefix.
type taskGroup struct {
	depth   int32 // ordering position of every task in the group
	idx     int32 // next unexecuted task within targets
	n       int32 // number of valid entries in targets
	targets [MaxGroupSize]int32
	// prefix, when non-nil, holds the mapping values for positions
	// [0, depth) that must be installed before executing the group —
	// attached by PackSteal for stolen groups (and by every spawn under
	// EagerCopy).
	prefix []int32
}

// workerState is the per-worker search state: the incrementally
// maintained partial mapping of §3.2(i).
type workerState struct {
	mapped []int32 // ordering position → target node (valid below depth)
	used   []bool  // target node → used by current mapping
	depth  int     // number of valid mapping entries
	ri.Counter
	matches  int64
	visitBuf []int32 // pattern node id → target node, for Visit
}

// engine implements steal.Runner[taskGroup].
type engine struct {
	p    *ri.Prepared
	opts Options
	done <-chan struct{} // Ctx's done channel (nil without one)
	ws   []*workerState
	rt   *steal.Runtime[taskGroup]

	globalMatches atomic.Int64 // only maintained when Limit > 0
	limitHit      atomic.Bool
	visitStop     atomic.Bool
}

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
	for i := range e.ws {
		var used []bool
		if arena != nil {
			used = arena.AcquireUsed()
		} else {
			used = make([]bool, p.Target.NumNodes())
		}
		e.ws[i] = &workerState{
			mapped:   make([]int32, p.NumPositions()),
			used:     used,
			visitBuf: make([]int32, p.Pattern.NumNodes()),
			Counter:  ri.Counter{Depth: make([]int64, p.NumPositions())},
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
		Workers:        opts.Workers,
		Stealing:       !opts.DisableStealing,
		StealFromFront: opts.StealFromFront,
		Seed:           opts.Seed,
	}, e)
	if err != nil {
		// normalized() guarantees Workers ≥ 1; steal.New cannot fail.
		panic(err)
	}
	e.rt = rt

	e.seedInitialTasks()

	// The runtime watches Ctx itself (idle workers included); busy
	// workers additionally poll the done channel inline via shouldStop.
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

// seedInitialTasks creates the tasks directly below the search root —
// one per consistent candidate of µ_1 — and deals them into the workers'
// deques in groups (§3.3). The consistency checks are counted against
// worker 0's state counter.
func (e *engine) seedInitialTasks() {
	ws0 := e.ws[0]
	g := taskGroup{depth: 0}
	next := 0
	flush := func() {
		if g.n > 0 {
			if e.opts.EagerCopy {
				g.prefix = []int32{}
			}
			e.rt.Seed(next, g)
			if !e.opts.NoInitialDistribution {
				next = (next + 1) % e.opts.Workers
			}
			g = taskGroup{depth: 0}
		}
	}
	e.p.RootCandidates(func(vt int32) bool {
		ws0.Add(0, 1)
		if e.p.Feasible(0, vt, ws0.mapped, ws0.used) {
			g.targets[g.n] = vt
			g.n++
			if int(g.n) == e.opts.TaskGroupSize {
				flush()
			}
		}
		return true
	})
	flush()
}

// Execute processes one task group on worker w: install the prefix if the
// group was stolen, split off the head task, push the remainder back, and
// expand the head (§3.4 processes groups "as a single unit of work";
// splitting preserves the depth-first mapping discipline).
func (e *engine) Execute(w *steal.Worker[taskGroup], g taskGroup) {
	ws := e.ws[w.ID]
	if g.prefix != nil {
		e.installPrefix(ws, g)
	}
	// Re-push the remaining siblings before expanding the head so the
	// head's children (pushed after) are popped first — depth-first.
	head := g.targets[g.idx]
	if g.idx+1 < g.n {
		rest := g
		rest.idx++
		rest.prefix = nil // the owner's mapping is valid for it now
		if e.opts.EagerCopy {
			rest.prefix = append([]int32(nil), ws.mapped[:g.depth]...)
		}
		w.Push(rest)
	}
	e.expand(w, ws, int(g.depth), head)
}

// installPrefix rewinds the worker's mapping completely and installs the
// stolen prefix. A thief only steals when its deque is empty, so no other
// private task depends on the discarded mapping.
func (e *engine) installPrefix(ws *workerState, g taskGroup) {
	for i := ws.depth - 1; i >= 0; i-- {
		ws.used[ws.mapped[i]] = false
	}
	ws.depth = 0
	for i, vt := range g.prefix[:g.depth] {
		ws.mapped[i] = vt
		ws.used[vt] = true
	}
	ws.depth = int(g.depth)
}

// expand maps the task (depth, vt) — already proven consistent at spawn
// time — and spawns the consistent children at depth+1.
func (e *engine) expand(w *steal.Worker[taskGroup], ws *workerState, depth int, vt int32) {
	// Rewind the mapping to the task's depth (§3.2(i): private tasks pop
	// in depth-first order, so entries below depth remain valid).
	for i := ws.depth - 1; i >= depth; i-- {
		ws.used[ws.mapped[i]] = false
	}
	ws.mapped[depth] = vt
	ws.used[vt] = true
	ws.depth = depth + 1

	if ws.depth == e.p.NumPositions() {
		e.emit(ws)
		return
	}

	next := ws.depth
	cur := taskGroup{depth: int32(next)}
	flush := func() {
		if cur.n > 0 {
			if e.opts.EagerCopy {
				cur.prefix = append([]int32(nil), ws.mapped[:next]...)
			}
			w.Push(cur)
			cur = taskGroup{depth: int32(next)}
		}
	}
	push := func(cand int32) {
		cur.targets[cur.n] = cand
		cur.n++
		if int(cur.n) == e.opts.TaskGroupSize {
			flush()
		}
	}

	// check spawns cand if it is consistent; tryCandidate first counts
	// it as one state, as the one-at-a-time loops do.
	check := func(cand int32) bool {
		if e.p.Feasible(next, cand, ws.mapped, ws.used) {
			push(cand)
		}
		return true
	}
	tryCandidate := func(cand int32) bool {
		if ws.Add(next, 1) && e.shouldStop() {
			return false
		}
		return check(cand)
	}

	if parent := e.p.ParentPos(next); parent != order.NoParent {
		v := ws.mapped[parent]
		adj := e.p.Candidates(next, v)
		if row := e.p.ParentRow(next, v, len(adj)); row != nil {
			if !e.p.ScanRow(&ws.Counter, next, row, e.shouldStop, check) {
				return
			}
		} else if e.p.Doms != nil {
			// A neighbor outside D(u) is a state that fails at once.
			for i, cand := range adj {
				if i > 0 && adj[i-1] == cand {
					continue
				}
				if !e.p.InDomain(next, cand) {
					if ws.Add(next, 1) && e.shouldStop() {
						return
					}
					continue
				}
				if !tryCandidate(cand) {
					return
				}
			}
		} else {
			for i, cand := range adj {
				if i > 0 && adj[i-1] == cand {
					continue // parallel target edges: same candidate node
				}
				if !tryCandidate(cand) {
					return
				}
			}
		}
	} else if e.p.Doms != nil {
		u := e.p.Ord.Seq[next]
		ok := true
		e.p.Doms.Of(u).ForEach(func(i int) bool {
			ok = tryCandidate(int32(i))
			return ok
		})
		if !ok {
			return
		}
	} else {
		// Parentless position without domains: label bucket (with a
		// shared target index) or every target node.
		ok := true
		e.p.FreeCandidates(next, func(cand int32) bool {
			ok = tryCandidate(cand)
			return ok
		})
		if !ok {
			return
		}
	}
	flush()
}

// emit records a complete match on the worker and handles Limit/Visit.
func (e *engine) emit(ws *workerState) {
	ws.matches++
	if e.opts.Visit != nil {
		for i, vt := range ws.mapped {
			ws.visitBuf[e.p.Ord.Seq[i]] = vt
		}
		if !e.opts.Visit(ws.visitBuf) {
			e.visitStop.Store(true)
			e.rt.Cancel()
			return
		}
	}
	if e.opts.Limit > 0 {
		if e.globalMatches.Add(1) >= e.opts.Limit {
			e.limitHit.Store(true)
			e.rt.Cancel()
		}
	}
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

// PackSteal attaches a copy of the victim's mapping prefix below the
// stolen group — the only mapping copy in the private-deque scheme
// ("our parallelization copies partial solutions only for stolen tasks,
// not those that remain private", §2.2.2).
func (e *engine) PackSteal(victim *steal.Worker[taskGroup], g taskGroup) taskGroup {
	if g.prefix == nil {
		ws := e.ws[victim.ID]
		prefix := make([]int32, g.depth)
		copy(prefix, ws.mapped[:g.depth])
		g.prefix = prefix
	}
	return g
}
