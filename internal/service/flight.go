package service

import (
	"context"
	"errors"
	"sync"
)

// flightTurns bounds how many turns a request rendezvouses on identical
// in-flight runs; after that it leads alone, unregistered, so one
// perpetually truncated leader cannot livelock its followers.
const flightTurns = 3

// source says how flightGroup.do obtained a request's value.
type source int

const (
	led    source = iota // this request ran it
	hit                  // served from the store
	joined               // shared from a concurrent identical run
)

// flightGroup is the request loop the query and census paths share. K
// is an epoch-keyed request key, V the shareable result of one run.
type flightGroup[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flightCall[V]
}

// flightCall is one in-flight run identical requests rendezvous on.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	ok   bool // val may be shared: the leader's run completed
	err  error
}

// do serves one request. Each turn re-reads the request's key (key
// stamps it with the target's current epoch, so a request arriving
// after an update never joins a pre-update run), then serves it from
// the store (get), joins an identical in-flight run, or leads one: lead
// runs the request, publishes its value to the store, and reports
// whether identical requests may share it.
//
// The first lookup takes no lock, so it can miss a value a leader
// publishes just after it. Before leading, the request therefore looks
// again under g.mu: a leader publishes before it unregisters, so a
// request that finds no flight to join finds that leader's value in
// the store. get's count is false for this second look, which the
// store's hit and miss counters must not see.
//
// A joined leader's error is shared, since it is deterministic for an
// identical request (validation, overload backpressure) — unless it is
// the leader's own cancellation or deadline. After such an error, or
// after a truncated run, the waiter retries with its own live context.
func (g *flightGroup[K, V]) do(ctx context.Context, key func() K, get func(k K, count bool) (V, bool), lead func() (V, bool, error)) (V, source, error) {
	var zero V
	for turn := 0; ; turn++ {
		k := key()
		if v, ok := get(k, true); ok {
			return v, hit, nil
		}
		if err := ctx.Err(); err != nil {
			return zero, led, err
		}
		g.mu.Lock()
		if f := g.flights[k]; f != nil && turn < flightTurns {
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, joined, ctx.Err()
			}
			if f.err == nil && f.ok {
				return f.val, joined, nil
			}
			if f.err != nil && !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
				return zero, joined, f.err
			}
			continue
		}
		if v, ok := get(k, false); ok {
			g.mu.Unlock()
			return v, hit, nil
		}
		var f *flightCall[V]
		if turn < flightTurns {
			if g.flights == nil {
				g.flights = make(map[K]*flightCall[V])
			}
			f = &flightCall[V]{done: make(chan struct{})}
			g.flights[k] = f
		}
		g.mu.Unlock()

		v, ok, err := lead()
		if f != nil {
			g.mu.Lock()
			delete(g.flights, k)
			g.mu.Unlock()
			f.val, f.ok, f.err = v, ok, err
			close(f.done)
		}
		return v, led, err
	}
}
