// Package steal implements the receiver-initiated work-stealing runtime
// with private deques that the paper adopts from Acar, Charguéraud and
// Rainey (PPoPP 2013) — Kimmig et al. §3.2–§3.5.
//
// A worker's private deque is the runner's own depth-first state: the
// runner explores a task depth-first, keeps its untried work to itself,
// and creates a task only when a thief asks. Once per expansion it calls
// Worker.Poll, which publishes whether it has work to give and, when a
// thief's request waits in its requests cell, calls the runner's Split on
// the victim's own goroutine and hands the split-off task over through
// the thief's transfer cell. A task that is never stolen thus costs no
// copy and no synchronization (§3.2).
//
// Shared state is exactly the three arrays the paper lists (§3.2):
//
//	workAvailable — one flag per worker: "I have work to give", written
//	                only when it changes;
//	requests      — one cell per worker holding a requesting thief's id,
//	                the only CAS-synchronized structure ("Except for the
//	                requests, all data structures are completely
//	                unsynchronized");
//	transfers     — one cell per worker where a granted (or rejected)
//	                steal is delivered.
//
// An idle worker probes victims that advertise work. After a few failed
// probes it parks on a channel instead of spinning; whoever changes what
// it waits for wakes it: a victim that starts advertising work, a thief
// that places a request in its cell, the worker that passes it the
// termination token, termination itself, and Cancel or the run's
// context. A parking worker marks itself parked and then re-checks every
// one of those conditions; each waker changes its state first and reads
// the parked flag afterwards, so no wakeup is lost.
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
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runner is the client of the runtime: it supplies task semantics.
type Runner[T any] interface {
	// Execute runs one task to completion on worker w, keeping its
	// untried work private, and calls w.Poll once per expansion. It
	// should return early once w.Cancelled() reports true.
	Execute(w *Worker[T], task T)
	// Split runs on the victim's goroutine, inside one of its Poll
	// calls, when a thief asks for work. It removes part of the victim's
	// untried work and returns it as a task the thief can run on its
	// own, or reports false when there is none. It never hands over the
	// work the victim is exploring.
	Split(victim *Worker[T]) (T, bool)
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of workers (goroutines). Must be ≥ 1.
	Workers int
	// Stealing enables load balancing. With false, workers only process
	// their initial share (the Fig 3 ablation).
	Stealing bool
	// Seed seeds the per-worker victim selection.
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

	// spinProbes is how many failed probes an idle worker makes, yielding
	// between them, before it parks.
	spinProbes = 4
)

// A busy worker yields its processor once yieldInterval has passed since
// it last did, checking the clock every yieldCheck polls. When workers
// occupy every processor, the goroutines around the search (HTTP
// handlers, thieves, the token's holder) would otherwise wait for the
// scheduler's 10 ms preemption; yielding at every check instead would
// cost a wakeup of an idle processor each time one is free.
const (
	yieldCheck    = 256
	yieldInterval = 50 * time.Microsecond
)

// transferMsg carries a granted steal (ok) or a rejection (!ok).
type transferMsg[T any] struct {
	task T
	ok   bool
}

// cell is one worker's shared state. Each word sits on its own 64-byte
// cache line (the dominant line size; the exact value only affects
// performance), since each has its own writers.
type cell[T any] struct {
	workAvailable atomic.Bool
	_             [60]byte
	parked        atomic.Bool
	_             [60]byte
	request       atomic.Int32
	_             [60]byte
	transfer      atomic.Pointer[transferMsg[T]]
	_             [56]byte
	wake          chan struct{} // capacity 1; read-only after New
}

// Worker is the per-goroutine state. Only the owning goroutine touches
// its fields.
type Worker[T any] struct {
	// ID is the worker index in [0, Config.Workers).
	ID int

	rt         *Runtime[T]
	queue      []T    // seeded tasks, run front to back
	rng        uint64 // xorshift state for victim selection
	color      int32  // white/black for termination detection
	advertised bool   // last value written to workAvailable
	polls      uint32
	yielded    time.Time // when the worker last yielded in Poll

	stealsReceived int64
	stealsGranted  int64

	_ [64]byte // keeps the next worker's fields off this one's cache lines
}

// Poll is the runner's call once per expansion. more reports whether
// Split would now find work to hand over; Poll publishes it as the
// worker's workAvailable flag, writing the shared flag only when the
// value changes. It then answers a pending steal request, and now and
// then yields the processor.
func (w *Worker[T]) Poll(more bool) {
	if more != w.advertised && w.rt.stealing {
		w.advertise(more)
	}
	if w.rt.cells[w.ID].request.Load() != noRequest {
		w.serve()
	}
	if w.polls++; w.polls%yieldCheck == 0 {
		w.yield()
	}
}

// yield gives up the processor if yieldInterval has passed since the
// worker last did.
func (w *Worker[T]) yield() {
	if now := time.Now(); now.Sub(w.yielded) >= yieldInterval {
		w.yielded = now
		runtime.Gosched()
	}
}

// QueueLen reports how many seeded tasks the worker has not started
// (owner-only; used by tests).
func (w *Worker[T]) QueueLen() int { return len(w.queue) }

// Cancelled reports whether the runtime was cancelled; long Execute
// implementations should poll it.
func (w *Worker[T]) Cancelled() bool { return w.rt.cancelled.Load() }

// Runtime executes a task graph over a fixed set of workers until global
// termination or cancellation.
type Runtime[T any] struct {
	runner Runner[T]
	// stealing is Config.Stealing with more than one worker: whether
	// anyone ever reads workAvailable.
	stealing bool

	workers []Worker[T]
	cells   []cell[T]
	reject  *transferMsg[T] // the one rejection message, shared
	done    <-chan struct{} // Run's ctx.Done(); nil without one

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
		runner:   r,
		stealing: cfg.Stealing && cfg.Workers > 1,
		workers:  make([]Worker[T], cfg.Workers),
		cells:    make([]cell[T], cfg.Workers),
		reject:   &transferMsg[T]{},
	}
	for i := range rt.workers {
		rt.workers[i] = Worker[T]{
			ID: i,
			rt: rt,
			// An odd state is never zero, the one xorshift cannot leave.
			rng: (uint64(cfg.Seed)+uint64(i))*0x9E3779B97F4A7C15 | 1,
		}
		rt.cells[i].request.Store(noRequest)
		rt.cells[i].wake = make(chan struct{}, 1)
	}
	// Token starts black at worker 0 so at least one full white round is
	// required before termination.
	rt.tokenHolder.Store(0)
	rt.tokenColor.Store(black)
	return rt, nil
}

// Seed queues a task on a worker before Run. The initial work
// distribution deals root-level tasks across workers (§3.3); a worker
// runs its seeded tasks in order, and thieves take their share through
// Split.
func (rt *Runtime[T]) Seed(worker int, t T) {
	rt.workers[worker].queue = append(rt.workers[worker].queue, t)
}

// Cancel aborts the run as soon as every worker notices the flag.
func (rt *Runtime[T]) Cancel() {
	rt.cancelled.Store(true)
	rt.wakeAll()
}

// Cancelled reports whether Cancel was called.
func (rt *Runtime[T]) Cancelled() bool { return rt.cancelled.Load() }

// Run starts all workers and blocks until global termination or
// cancellation; no worker goroutine outlives it. A nil ctx means
// context.Background(). Busy workers leave the context to the runner; a
// worker between tasks or probes checks it, and a parked worker wakes on
// it and cancels the run. Run may be called once per Runtime.
func (rt *Runtime[T]) Run(ctx context.Context) Stats {
	if ctx != nil {
		rt.done = ctx.Done()
	}
	var wg sync.WaitGroup
	wg.Add(len(rt.workers))
	for i := range rt.workers {
		go func(w *Worker[T]) {
			defer wg.Done()
			w.loop()
		}(&rt.workers[i])
	}
	wg.Wait()

	st := Stats{
		StealsReceived: make([]int64, len(rt.workers)),
		StealsGranted:  make([]int64, len(rt.workers)),
		Rejects:        rt.rejects.Load(),
		TokenRounds:    rt.tokenRounds.Load(),
	}
	for i := range rt.workers {
		st.StealsReceived[i] = rt.workers[i].stealsReceived
		st.StealsGranted[i] = rt.workers[i].stealsGranted
	}
	return st
}

// stopped reports termination or cancellation, turning a fired context
// into Cancel.
func (rt *Runtime[T]) stopped() bool {
	if rt.terminated.Load() || rt.cancelled.Load() {
		return true
	}
	select {
	case <-rt.done:
		rt.Cancel()
		return true
	default:
		return false
	}
}

// loop is the work loop of Fig 2 in the paper, with the deque inside the
// runner: run the seeded tasks, then steal until termination.
func (w *Worker[T]) loop() {
	rt := w.rt
	for !rt.stopped() {
		var t T
		if len(w.queue) > 0 {
			t, w.queue = w.queue[0], w.queue[1:]
		} else if stolen, ok := w.acquire(); ok {
			t = stolen
		} else {
			break // terminated or cancelled while idle
		}
		rt.runner.Execute(w, t)
		if w.advertised {
			w.advertise(false)
		}
	}
	// Leave no thief waiting on our transfer cell: answer any pending
	// request with a rejection on the way out.
	w.rejectPending()
}

// acquire implements the idle phase: the worker requests work from
// victims that advertise it until it receives a task or the computation
// terminates (§3.2: "Once it runs out of tasks, it repeatedly requests
// work from a random worker until it receives a task or is terminated"),
// parking after spinProbes failed probes in a row. It reports false on
// termination or cancellation.
func (w *Worker[T]) acquire() (T, bool) {
	rt := w.rt
	for probes := 1; ; probes++ {
		if rt.stopped() {
			var zero T
			return zero, false
		}
		// We hold no work, so answer any thief immediately.
		w.rejectPending()
		// Termination token: idle workers pass it along the ring.
		w.handleToken()
		if v := w.pickVictim(); v >= 0 && rt.cells[v].request.CompareAndSwap(noRequest, int32(w.ID)) {
			rt.wakeIfParked(v) // it may have run dry since we looked
			if msg := w.awaitTransfer(); msg != nil && msg.ok {
				w.stealsReceived++
				return msg.task, true
			}
		}
		if probes < spinProbes {
			runtime.Gosched()
			continue
		}
		probes = 0
		w.park()
	}
}

// pickVictim returns another worker advertising work, scanning from a
// pseudo-random start, or -1.
func (w *Worker[T]) pickVictim() int {
	rt := w.rt
	if !rt.stealing {
		return -1
	}
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	n := len(rt.cells)
	start := int(w.rng % uint64(n))
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v != w.ID && rt.cells[v].workAvailable.Load() {
			return v
		}
	}
	return -1
}

// awaitTransfer spins until the victim answers our request (grant or
// reject) at its next Poll. While waiting it keeps answering its own
// pending requests, and it returns nil once the run stops (the victim
// may have exited).
func (w *Worker[T]) awaitTransfer() *transferMsg[T] {
	c := &w.rt.cells[w.ID]
	for {
		if msg := c.transfer.Swap(nil); msg != nil {
			return msg
		}
		if w.rt.stopped() {
			return nil
		}
		w.rejectPending()
		runtime.Gosched()
	}
}

// park sleeps until a waker signals. It marks the worker parked first
// and then re-checks each condition a waker reports, so a change made
// before the flag was visible is seen here, and one made after it finds
// the flag and signals.
func (w *Worker[T]) park() {
	rt := w.rt
	c := &rt.cells[w.ID]
	c.parked.Store(true)
	if rt.mayPark(w.ID) {
		select {
		case <-c.wake:
		case <-rt.done:
			rt.Cancel()
		}
	}
	c.parked.Store(false)
}

// mayPark reports whether nothing worker id waits for has happened: no
// request in its cell, not the token holder, no other worker advertising
// work, neither terminated nor cancelled. The context is the park's own
// select case.
func (rt *Runtime[T]) mayPark(id int) bool {
	if rt.cells[id].request.Load() != noRequest || rt.tokenHolder.Load() == int32(id) ||
		rt.terminated.Load() || rt.cancelled.Load() {
		return false
	}
	if rt.stealing {
		for i := range rt.cells {
			if i != id && rt.cells[i].workAvailable.Load() {
				return false
			}
		}
	}
	return true
}

// wakeIfParked signals worker i if it is parked. The caller has already
// changed whatever i waits for.
func (rt *Runtime[T]) wakeIfParked(i int) {
	c := &rt.cells[i]
	if c.parked.Load() {
		select {
		case c.wake <- struct{}{}:
		default: // a signal is already pending
		}
	}
}

// wakeAll signals every parked worker.
func (rt *Runtime[T]) wakeAll() {
	for i := range rt.cells {
		rt.wakeIfParked(i)
	}
}

// advertise writes the worker's workAvailable flag; when work appears it
// wakes the parked workers so they can come and steal it.
func (w *Worker[T]) advertise(more bool) {
	rt := w.rt
	w.advertised = more
	rt.cells[w.ID].workAvailable.Store(more)
	if more {
		rt.wakeAll()
	}
}

// serve answers the pending steal request from inside Poll (§3.2: the
// worker "checks for a work request in requests, answering that via
// transfers from the back of its queue if possible"); Split decides what
// the back of the queue is.
func (w *Worker[T]) serve() {
	rt := w.rt
	c := &rt.cells[w.ID]
	thief := c.request.Load()
	msg := rt.reject
	if t, ok := rt.runner.Split(w); ok {
		msg = &transferMsg[T]{task: t, ok: true}
		w.stealsGranted++
		// Granting a steal may reactivate a worker the termination token
		// already passed: turn black so the current probe round fails
		// (conservative variant of Dijkstra's rule).
		w.color = black
	} else {
		rt.rejects.Add(1)
		if w.advertised {
			w.advertise(false)
		}
	}
	rt.cells[thief].transfer.Store(msg)
	c.request.Store(noRequest)
}

// rejectPending answers a pending request with "no work"; used whenever
// the worker is idle or exiting.
func (w *Worker[T]) rejectPending() {
	rt := w.rt
	c := &rt.cells[w.ID]
	thief := c.request.Load()
	if thief == noRequest {
		return
	}
	rt.rejects.Add(1)
	rt.cells[thief].transfer.Store(rt.reject)
	c.request.Store(noRequest)
}

// handleToken advances Dijkstra's termination-detection token if this
// idle worker currently holds it (§3.5), waking the next holder.
func (w *Worker[T]) handleToken() {
	rt := w.rt
	if rt.tokenHolder.Load() != int32(w.ID) {
		return
	}
	if w.ID == 0 {
		if rt.tokenColor.Load() == white && w.color == white {
			rt.terminated.Store(true)
			rt.wakeAll()
			return
		}
		// Start a fresh probe round with a white token.
		rt.tokenRounds.Add(1)
		rt.tokenColor.Store(white)
	} else if w.color == black {
		rt.tokenColor.Store(black)
	}
	w.color = white
	next := (w.ID + 1) % len(rt.cells)
	rt.tokenHolder.Store(int32(next))
	rt.wakeIfParked(next)
}
