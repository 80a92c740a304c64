// Package steal implements the receiver-initiated work-stealing runtime
// with private deques that the paper adopts from Acar, Charguéraud and
// Rainey (PPoPP 2013) — Kimmig et al. §3.2–§3.5.
//
// Each worker owns a private, completely unsynchronized deque. The owner
// pushes and pops task groups at the front in depth-first order; idle
// workers place a request in the victim's requests cell and the *victim*
// services it inside its work loop, popping from the back of its own
// deque and handing the task over through a transfer cell. Because tasks
// near the back are close to the root of the search space tree, stolen
// tasks tend to be long-running and steals stay rare (§3.2(ii)).
//
// Shared state is exactly the three arrays the paper lists (§3.2):
//
//	workAvailable — one flag per worker: "my deque is non-empty";
//	requests      — one cell per worker holding a requesting thief's id,
//	                the only CAS-synchronized structure ("Except for the
//	                requests, all data structures are completely
//	                unsynchronized");
//	transfers     — one cell per worker where a granted (or rejected)
//	                steal is delivered.
//
// Termination uses the Dijkstra token-ring algorithm (§3.5): idle
// workers pass a token around the worker ring; granting a steal colors
// the victim black; a black worker blackens the token as it forwards it;
// worker 0 declares global termination when a white token completes a
// round while worker 0 itself is white and idle.
package steal

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"parsge/internal/deque"
)

// Runner is the client of the runtime: it supplies task semantics.
type Runner[T any] interface {
	// Execute runs one task group on the calling worker. It may push
	// follow-up groups via w.Push; pushes go to the front of w's deque
	// in depth-first order.
	Execute(w *Worker[T], task T)
	// PackSteal is invoked on the *victim's* goroutine just before task
	// (popped from the back of the victim's deque) is transferred to a
	// thief. It returns the value delivered — typically the task plus a
	// copy of the victim's current partial-mapping prefix, the only
	// mapping copy the system ever performs (§3.2).
	PackSteal(victim *Worker[T], task T) T
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of workers (goroutines). Must be ≥ 1.
	Workers int
	// Stealing enables load balancing. With false, workers only process
	// their initial share (the Fig 3 ablation).
	Stealing bool
	// StealFromFront services steals from the *front* of the victim's
	// deque instead of the back — an ablation that violates the
	// "steal close to the root" principle (§3.2(ii)).
	StealFromFront bool
	// Seed seeds the per-worker victim-selection RNGs.
	Seed int64
}

// Stats aggregates runtime counters after Run returns.
type Stats struct {
	// StealsReceived[w] counts tasks worker w obtained by stealing.
	StealsReceived []int64
	// StealsGranted[w] counts tasks worker w handed to thieves.
	StealsGranted []int64
	// Rejects counts steal requests answered with "no work".
	Rejects int64
	// TokenRounds counts termination-probe rounds (≥ 1).
	TokenRounds int64
}

// TotalSteals sums StealsReceived — the paper's "number of steals".
func (s Stats) TotalSteals() int64 {
	var t int64
	for _, v := range s.StealsReceived {
		t += v
	}
	return t
}

const (
	noRequest = int32(-1)
	white     = int32(0)
	black     = int32(1)
)

// transferMsg carries a granted steal (ok) or a rejection (!ok).
type transferMsg[T any] struct {
	task T
	ok   bool
}

// pad prevents false sharing between per-worker atomic cells. 64 bytes
// is the dominant cache line size; the exact value only affects
// performance, not correctness.
type paddedBool struct {
	v atomic.Bool
	_ [56]byte
}

type paddedInt32 struct {
	v atomic.Int32
	_ [60]byte
}

type paddedPtr[T any] struct {
	v atomic.Pointer[transferMsg[T]]
	_ [56]byte
}

// Worker is the per-goroutine state. Only the owning goroutine touches
// dq, rng, and color.
type Worker[T any] struct {
	// ID is the worker index in [0, Config.Workers).
	ID int

	rt    *Runtime[T]
	dq    deque.Deque[T]
	rng   *rand.Rand
	color int32 // white/black for termination detection; owner-only

	stealsReceived int64
	stealsGranted  int64
}

// Push adds a task group at the front of the worker's private deque
// (depth-first order). Must only be called from Runner.Execute on the
// same worker.
func (w *Worker[T]) Push(t T) { w.dq.PushFront(t) }

// QueueLen reports the current private deque length (owner-only; used by
// Runner implementations for adaptive decisions and by tests).
func (w *Worker[T]) QueueLen() int { return w.dq.Len() }

// Cancelled reports whether the runtime was cancelled; long Execute
// implementations should poll it.
func (w *Worker[T]) Cancelled() bool { return w.rt.cancelled.Load() }

// Runtime executes a task graph over a fixed set of workers until global
// termination or cancellation.
type Runtime[T any] struct {
	cfg    Config
	runner Runner[T]

	workers       []*Worker[T]
	workAvailable []paddedBool
	requests      []paddedInt32
	transfers     []paddedPtr[T]

	tokenHolder atomic.Int32
	tokenColor  atomic.Int32
	terminated  atomic.Bool
	cancelled   atomic.Bool

	rejects     atomic.Int64
	tokenRounds atomic.Int64
}

// New builds a runtime. Seed tasks with Seed before calling Run.
func New[T any](cfg Config, r Runner[T]) (*Runtime[T], error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("steal: Workers = %d, need at least 1", cfg.Workers)
	}
	rt := &Runtime[T]{
		cfg:           cfg,
		runner:        r,
		workers:       make([]*Worker[T], cfg.Workers),
		workAvailable: make([]paddedBool, cfg.Workers),
		requests:      make([]paddedInt32, cfg.Workers),
		transfers:     make([]paddedPtr[T], cfg.Workers),
	}
	for i := range rt.workers {
		rt.workers[i] = &Worker[T]{
			ID:  i,
			rt:  rt,
			rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9E3779B9)),
		}
		rt.requests[i].v.Store(noRequest)
	}
	// Token starts black at worker 0 so at least one full white round is
	// required before termination.
	rt.tokenHolder.Store(0)
	rt.tokenColor.Store(black)
	return rt, nil
}

// Seed places a task group at the back of a worker's deque before Run.
// The initial work distribution deals root-level tasks across workers
// (§3.3); pushing to the back keeps the owner's front free for its own
// depth-first children.
func (rt *Runtime[T]) Seed(worker int, t T) {
	rt.workers[worker].dq.PushBack(t)
}

// Cancel aborts the run as soon as every worker notices the flag.
func (rt *Runtime[T]) Cancel() { rt.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (rt *Runtime[T]) Cancelled() bool { return rt.cancelled.Load() }

// Run starts all workers and blocks until global termination or
// cancellation. A nil ctx means context.Background(); when ctx carries a
// cancellation signal, a watcher goroutine translates it into Cancel()
// the moment it fires, so even fully idle workers notice promptly —
// workers themselves never touch the context. Run may be called once per
// Runtime.
func (rt *Runtime[T]) Run(ctx context.Context) Stats {
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				select {
				case <-done:
					rt.Cancel()
				case <-stop:
				}
			}()
		}
	}
	for i := range rt.workers {
		rt.workAvailable[i].v.Store(!rt.workers[i].dq.Empty())
	}
	var wg sync.WaitGroup
	wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go func(w *Worker[T]) {
			defer wg.Done()
			w.loop()
		}(w)
	}
	wg.Wait()

	st := Stats{
		StealsReceived: make([]int64, len(rt.workers)),
		StealsGranted:  make([]int64, len(rt.workers)),
		Rejects:        rt.rejects.Load(),
		TokenRounds:    rt.tokenRounds.Load(),
	}
	for i, w := range rt.workers {
		st.StealsReceived[i] = w.stealsReceived
		st.StealsGranted[i] = w.stealsGranted
	}
	return st
}

// loop is the work loop of Fig 2 in the paper:
//
//	while not terminated:
//	    if q.is_empty(): acquire_task(worker)
//	    task = q.pop()
//	    work_available[worker] = not q.is_empty()
//	    process_task_requests(worker)
//	    execute(task)
func (w *Worker[T]) loop() {
	rt := w.rt
	iter := 0
	for !rt.terminated.Load() && !rt.cancelled.Load() {
		// Periodic fairness yield: when workers outnumber CPUs (the
		// paper runs 16 workers; hosts may have fewer cores), a busy
		// worker in a tight loop can starve thieves and the
		// termination token of scheduler time.
		if iter++; iter&63 == 0 {
			runtime.Gosched()
		}
		if w.dq.Empty() {
			if !w.acquire() {
				break // terminated or cancelled while idle
			}
		}
		task, ok := w.dq.PopFront()
		if !ok {
			continue // acquire can return without a task after a reject
		}
		rt.workAvailable[w.ID].v.Store(!w.dq.Empty())
		w.processRequests()
		rt.runner.Execute(w, task)
	}
	// Leave no thief spinning on our transfer cell: answer any pending
	// request with a rejection on the way out.
	rt.workAvailable[w.ID].v.Store(false)
	w.rejectPending()
}

// acquire implements the idle phase: the worker repeatedly requests work
// from random victims until it receives a task or the computation
// terminates (§3.2: "Once it runs out of tasks, it repeatedly requests
// work from a random worker until it receives a task or is terminated").
// It returns false on termination/cancellation.
func (w *Worker[T]) acquire() bool {
	rt := w.rt
	rt.workAvailable[w.ID].v.Store(false)
	for {
		if rt.terminated.Load() || rt.cancelled.Load() {
			return false
		}
		// We hold no work, so answer any thief immediately.
		w.rejectPending()
		// Termination token: idle workers pass it along the ring.
		w.handleToken()
		if !rt.cfg.Stealing || len(rt.workers) == 1 {
			runtime.Gosched()
			continue
		}
		victim := w.pickVictim()
		if victim < 0 {
			runtime.Gosched()
			continue
		}
		if !rt.requests[victim].v.CompareAndSwap(noRequest, int32(w.ID)) {
			runtime.Gosched()
			continue
		}
		if msg := w.awaitTransfer(); msg != nil && msg.ok {
			w.dq.PushFront(msg.task)
			w.stealsReceived++
			rt.workAvailable[w.ID].v.Store(true)
			return true
		}
	}
}

// pickVictim returns a random other worker advertising work, or -1.
func (w *Worker[T]) pickVictim() int {
	rt := w.rt
	n := len(rt.workers)
	// One random probe per iteration, as in receiver-initiated private
	// deque stealing; scanning all workers would serialize on the flags.
	v := w.rng.Intn(n)
	if v == w.ID || !rt.workAvailable[v].v.Load() {
		return -1
	}
	return v
}

// awaitTransfer spins until the victim answers our request (grant or
// reject). While waiting it keeps answering its own pending requests and
// returns nil on cancellation (the victim may have exited).
func (w *Worker[T]) awaitTransfer() *transferMsg[T] {
	rt := w.rt
	cell := &rt.transfers[w.ID].v
	for {
		if msg := cell.Load(); msg != nil {
			cell.Store(nil)
			return msg
		}
		if rt.cancelled.Load() {
			return nil
		}
		w.rejectPending()
		runtime.Gosched()
	}
}

// processRequests services at most one pending steal request from the
// work loop (§3.2: the worker "checks for a work request in requests,
// answering that via transfers from the back of its queue if possible").
func (w *Worker[T]) processRequests() {
	rt := w.rt
	thief := rt.requests[w.ID].v.Load()
	if thief == noRequest {
		return
	}
	var msg transferMsg[T]
	var task T
	var ok bool
	if rt.cfg.StealFromFront {
		task, ok = w.dq.PopFront()
	} else {
		task, ok = w.dq.PopBack()
	}
	if ok {
		msg = transferMsg[T]{task: rt.runner.PackSteal(w, task), ok: true}
		w.stealsGranted++
		// Granting a steal may reactivate a worker the termination token
		// already passed: turn black so the current probe round fails
		// (conservative variant of Dijkstra's rule).
		w.color = black
		rt.workAvailable[w.ID].v.Store(!w.dq.Empty())
	} else {
		rt.rejects.Add(1)
	}
	rt.transfers[thief].v.Store(&msg)
	rt.requests[w.ID].v.Store(noRequest)
}

// rejectPending answers a pending request with "no work"; used whenever
// the worker is idle or exiting.
func (w *Worker[T]) rejectPending() {
	rt := w.rt
	thief := rt.requests[w.ID].v.Load()
	if thief == noRequest {
		return
	}
	rt.rejects.Add(1)
	rt.transfers[thief].v.Store(&transferMsg[T]{})
	rt.requests[w.ID].v.Store(noRequest)
}

// handleToken advances Dijkstra's termination-detection token if this
// idle worker currently holds it (§3.5).
func (w *Worker[T]) handleToken() {
	rt := w.rt
	if rt.tokenHolder.Load() != int32(w.ID) {
		return
	}
	n := int32(len(rt.workers))
	if w.ID == 0 {
		if rt.tokenColor.Load() == white && w.color == white {
			rt.terminated.Store(true)
			return
		}
		// Start a fresh probe round with a white token.
		rt.tokenRounds.Add(1)
		w.color = white
		rt.tokenColor.Store(white)
		rt.tokenHolder.Store(1 % n)
		return
	}
	if w.color == black {
		rt.tokenColor.Store(black)
	}
	w.color = white
	rt.tokenHolder.Store((int32(w.ID) + 1) % n)
}
