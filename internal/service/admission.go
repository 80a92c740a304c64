package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// Admission errors. Both are load signals, not query failures: the
// client may retry (ideally with backoff), and sgeserve maps them to
// HTTP 503 / 504 so load balancers can react.
var (
	// ErrOverloaded reports the admission queue was full when the query
	// arrived: the service sheds it immediately rather than letting the
	// queue grow without bound.
	ErrOverloaded = errors.New("service: overloaded, query shed")
	// ErrQueueTimeout reports the query waited in the admission queue
	// longer than the configured bound without a slot freeing up.
	ErrQueueTimeout = errors.New("service: timed out waiting for admission")
)

// queueSet is one priority tier of the admission queue: per-class FIFO
// queues with a round-robin rotation across the classes that currently
// have waiters. A Router runs one class per target; a one-target
// router degenerates to plain FIFO.
type queueSet struct {
	queues map[string]*list.List // per class, of *waiter, FIFO
	order  []string              // round-robin rotation of classes with waiters
	rr     int                   // next rotation position to serve
	queued int                   // total waiters across classes
}

// push enqueues w at the back of its class queue, registering the class
// in the rotation when it was empty.
func (qs *queueSet) push(w *waiter) *list.Element {
	if qs.queues == nil {
		qs.queues = make(map[string]*list.List)
	}
	q := qs.queues[w.class]
	if q == nil {
		q = list.New()
		qs.queues[w.class] = q
	}
	if q.Len() == 0 {
		qs.order = append(qs.order, w.class)
	}
	el := q.PushBack(w)
	qs.queued++
	return el
}

// remove unlinks an un-granted waiter from its class queue.
func (qs *queueSet) remove(el *list.Element, w *waiter) {
	q := qs.queues[w.class]
	q.Remove(el)
	qs.queued--
	if q.Len() == 0 {
		qs.dropClass(w.class)
	}
}

// dropClass removes an empty class from the rotation, keeping the rr
// position pointed at the same next class.
func (qs *queueSet) dropClass(class string) {
	for i, c := range qs.order {
		if c != class {
			continue
		}
		qs.order = append(qs.order[:i], qs.order[i+1:]...)
		if qs.rr > i {
			qs.rr--
		}
		if len(qs.order) > 0 {
			qs.rr %= len(qs.order)
		} else {
			qs.rr = 0
		}
		return
	}
}

// admission partitions a fixed worker budget across concurrent queries.
// A small query holds one token and runs the sequential engine; a large
// one holds several and gets the work-stealing parallel pool — so the
// machine is never oversubscribed: the sum of held tokens never exceeds
// the budget, whatever mix of query sizes is in flight.
//
// Waiters queue per *class* (a Router runs one class per target), FIFO
// within a class, and grants rotate round-robin across classes — so one
// target's request flood cannot starve its siblings: each release hands
// the next slot to the next class in rotation, head-of-queue first.
// With a single class the rotation is a no-op and the discipline is
// exactly plain FIFO.
//
// There are two priority tiers: the normal tier, and a low tier behind
// it for queries the cost model predicted explosive but chose to
// deprioritize rather than shed (ExplosiveDeprioritize). Priority is
// strict — a low waiter is granted only when the normal tier is empty —
// so a steady stream of normal traffic can hold low waiters back
// indefinitely; the per-query wait bound (ErrQueueTimeout) is what
// keeps a deprioritized query from waiting forever.
//
// Two overload valves apply across all classes and both tiers: a total
// queue-length bound (shed immediately once exceeded — ErrOverloaded)
// and a per-query wait bound (ErrQueueTimeout). Within a tier's
// rotation, a head whose token demand does not fit freezes further
// grants until tokens free up: that head-of-line reservation is
// deliberate — skipping ahead would starve large queries under a steady
// trickle of small ones, and the rotation guarantees every class's head
// gets its turn as the frozen head. A frozen normal head also blocks
// the low tier (its reservation holds against lower-priority work by
// construction).
type admission struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64
	normal   queueSet
	low      queueSet
	maxQueue int

	granted, shed, timedOut int64
	totalWait               time.Duration
}

type waiter struct {
	class   string
	need    int64
	low     bool          // queued in the low-priority tier
	ready   chan struct{} // closed on grant, with w.granted set
	granted bool          // guarded by admission.mu
}

func newAdmission(capacity int64, maxQueue int) *admission {
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// acquire blocks until need tokens are granted, the context fires, the
// queue timeout elapses, or the queue is full on arrival. It returns the
// time spent waiting. need is clamped to the capacity by the caller.
// low queues the waiter in the low-priority tier, behind all normal
// traffic.
func (a *admission) acquire(ctx context.Context, class string, need int64, timeout time.Duration, low bool) (time.Duration, error) {
	a.mu.Lock()
	if a.normal.queued == 0 && (!low || a.low.queued == 0) && a.inUse+need <= a.capacity {
		a.inUse += need
		a.granted++
		a.mu.Unlock()
		return 0, nil
	}
	if a.normal.queued+a.low.queued >= a.maxQueue {
		a.shed++
		a.mu.Unlock()
		return 0, ErrOverloaded
	}
	w := &waiter{class: class, need: need, low: low, ready: make(chan struct{})}
	var el *list.Element
	if low {
		el = a.low.push(w)
	} else {
		el = a.normal.push(w)
	}
	a.mu.Unlock()

	start := time.Now()
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-w.ready:
		waited := time.Since(start)
		a.mu.Lock()
		a.totalWait += waited
		a.mu.Unlock()
		return waited, nil
	case <-ctx.Done():
		a.abandon(el, w)
		return time.Since(start), ctx.Err()
	case <-timeoutC:
		a.abandon(el, w)
		a.mu.Lock()
		a.timedOut++
		a.mu.Unlock()
		return time.Since(start), ErrQueueTimeout
	}
}

// abandon removes an un-granted waiter from its tier's class queue. If
// the grant raced the abandonment (ready closed between the select
// firing and the lock being taken), the tokens are handed straight back.
func (a *admission) abandon(el *list.Element, w *waiter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		a.inUse -= w.need
		a.grantLocked()
		return
	}
	if w.low {
		a.low.remove(el, w)
	} else {
		a.normal.remove(el, w)
	}
	// The abandoned waiter may have been the frozen head reserving
	// capacity; whoever is behind it may fit now.
	a.grantLocked()
}

// release returns tokens and wakes queued waiters.
func (a *admission) release(need int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inUse -= need
	a.grantLocked()
}

// grantLocked admits waiters while tokens fit: the normal tier's class
// heads round-robin first, then — only once the normal tier is empty —
// the low tier's. The first head that does not fit freezes further
// grants in both tiers (capacity is reserved for it — see the type
// comment).
func (a *admission) grantLocked() {
	if !a.grantFromLocked(&a.normal) {
		return // frozen normal head reserves capacity against low too
	}
	a.grantFromLocked(&a.low)
}

// grantFromLocked admits the tier's class heads round-robin while their
// token demand fits. It returns false when it stopped on a head that
// did not fit (the tier still has waiters and capacity is reserved),
// true when the tier drained.
func (a *admission) grantFromLocked(qs *queueSet) bool {
	for qs.queued > 0 {
		cls := qs.order[qs.rr%len(qs.order)]
		q := qs.queues[cls]
		w := q.Front().Value.(*waiter)
		if a.inUse+w.need > a.capacity {
			return false
		}
		q.Remove(q.Front())
		qs.queued--
		if q.Len() == 0 {
			qs.dropClass(cls)
		} else {
			qs.rr = (qs.rr + 1) % len(qs.order)
		}
		a.inUse += w.need
		a.granted++
		w.granted = true
		close(w.ready)
	}
	return true
}

// load returns a point-in-time view of the admission state.
func (a *admission) load() (inUse int64, queued int, granted, shed, timedOut int64, totalWait time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse, a.normal.queued + a.low.queued, a.granted, a.shed, a.timedOut, a.totalWait
}
