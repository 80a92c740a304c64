package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fkey is the epoch-keyed request key of the flightGroup tests.
type fkey struct {
	name  string
	epoch uint64
}

// finished returns a flight whose leader has already published: the
// state a waiter sees once the run it joined is over.
func finished(val int, ok bool, err error) *flightCall[int] {
	f := &flightCall[int]{done: make(chan struct{}), val: val, ok: ok, err: err}
	close(f.done)
	return f
}

// miss is a store that never holds the key.
func miss(fkey, bool) (int, bool) { return 0, false }

// TestFlightGroupSharesDeterministicError: a leader's error that any
// identical request would also get (here ErrQueueTimeout) reaches the
// waiter that joined it, without a second run.
func TestFlightGroupSharesDeterministicError(t *testing.T) {
	var g flightGroup[fkey, int]
	k := fkey{name: "q", epoch: 1}
	g.flights = map[fkey]*flightCall[int]{k: finished(0, false, ErrQueueTimeout)}
	leads := 0
	_, src, err := g.do(context.Background(), func() fkey { return k }, miss,
		func() (int, bool, error) { leads++; return 1, true, nil })
	if !errors.Is(err, ErrQueueTimeout) || src != joined {
		t.Fatalf("waiter got (%v, %v), want the leader's ErrQueueTimeout, joined", src, err)
	}
	if leads != 0 {
		t.Fatalf("%d runs after a shared error, want 0", leads)
	}
}

// TestFlightGroupRetriesAfterLeaderTruncation: a run that was truncated,
// or whose leader's own context died, says nothing about the request —
// the waiter retries and, once the leader has unregistered, leads a
// run of its own.
func TestFlightGroupRetriesAfterLeaderTruncation(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"truncated", nil},
		{"cancelled", context.Canceled},
		{"deadline", context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g flightGroup[fkey, int]
			k := fkey{name: "q", epoch: 1}
			g.flights = map[fkey]*flightCall[int]{k: finished(0, false, tc.err)}
			turns := 0
			key := func() fkey {
				if turns++; turns == 2 {
					delete(g.flights, k) // the truncated leader unregisters
				}
				return k
			}
			registered := false
			v, src, err := g.do(context.Background(), key, miss, func() (int, bool, error) {
				registered = g.flights[k] != nil
				return 7, true, nil
			})
			if err != nil || src != led || v != 7 {
				t.Fatalf("waiter got (%d, %v, %v), want its own run's (7, led, nil)", v, src, err)
			}
			if turns != 2 || !registered {
				t.Fatalf("turns=%d registered=%v, want a second turn that leads and registers", turns, registered)
			}
			if len(g.flights) != 0 {
				t.Fatalf("%d flights left after the run", len(g.flights))
			}
		})
	}
}

// TestFlightGroupLateArrivalServedFromStore: a request whose lock-free
// lookup missed just before a leader published, and which takes the
// group lock only after that leader unregistered, finds no flight to
// join. The look under the lock finds the published value, so the
// request is a hit and leads no second run — and that look, unlike the
// first, is uncounted.
func TestFlightGroupLateArrivalServedFromStore(t *testing.T) {
	var g flightGroup[fkey, int]
	k := fkey{name: "q", epoch: 1}
	var counted []bool
	get := func(_ fkey, count bool) (int, bool) {
		counted = append(counted, count)
		if len(counted) == 1 {
			return 0, false // the leader has not published yet
		}
		return 5, true // published, and unregistered, in the meantime
	}
	leads := 0
	v, src, err := g.do(context.Background(), func() fkey { return k }, get,
		func() (int, bool, error) { leads++; return 6, true, nil })
	if err != nil || src != hit || v != 5 || leads != 0 {
		t.Fatalf("late arrival got (%d, %v, %v) with leads=%d, want (5, hit, nil) and no run", v, src, err, leads)
	}
	if len(counted) != 2 || !counted[0] || counted[1] {
		t.Fatalf("lookups counted %v, want the first counted and the re-check not", counted)
	}
	if len(g.flights) != 0 {
		t.Fatalf("%d flights left after a hit", len(g.flights))
	}
}

// TestFlightGroupLeadsAloneAfterTurns: against a perpetually truncated
// leader (a fresh truncated flight every turn), a waiter joins for
// flightTurns turns, then runs without registering — so no follower can
// latch onto it.
func TestFlightGroupLeadsAloneAfterTurns(t *testing.T) {
	var g flightGroup[fkey, int]
	k := fkey{name: "q", epoch: 1}
	turns := 0
	var last *flightCall[int]
	key := func() fkey {
		turns++
		last = finished(0, false, nil)
		g.flights = map[fkey]*flightCall[int]{k: last}
		return k
	}
	leads := 0
	v, src, err := g.do(context.Background(), key, miss, func() (int, bool, error) {
		leads++
		if g.flights[k] != last {
			t.Error("the waiter registered its run after the turn limit")
		}
		return 9, true, nil
	})
	if err != nil || src != led || v != 9 {
		t.Fatalf("waiter got (%d, %v, %v), want its own run's (9, led, nil)", v, src, err)
	}
	if turns != flightTurns+1 || leads != 1 {
		t.Fatalf("turns=%d leads=%d, want %d turns and one run", turns, leads, flightTurns+1)
	}
	if g.flights[k] != last {
		t.Fatal("the unregistered run removed another leader's flight")
	}
}

// TestFlightGroupEpochMoveLeavesOldFlight: a key re-read after the epoch
// moved names a different rendezvous, so the waiter never joins a run
// still in flight at the old epoch (one that would never finish here).
func TestFlightGroupEpochMoveLeavesOldFlight(t *testing.T) {
	var g flightGroup[fkey, int]
	old, cur := fkey{name: "q", epoch: 1}, fkey{name: "q", epoch: 2}
	g.flights = map[fkey]*flightCall[int]{old: finished(0, false, nil)}
	turns := 0
	key := func() fkey {
		if turns++; turns == 1 {
			return old
		}
		// An update landed; another leader is still running at epoch 1.
		g.flights[old] = &flightCall[int]{done: make(chan struct{})}
		return cur
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var registered bool
	v, src, err := g.do(ctx, key, miss, func() (int, bool, error) {
		registered = g.flights[cur] != nil
		return 3, true, nil
	})
	if err != nil || src != led || v != 3 {
		t.Fatalf("waiter got (%d, %v, %v), want its own run's (3, led, nil)", v, src, err)
	}
	if !registered {
		t.Fatal("the run was not registered under the new epoch")
	}
}

// TestFlightGroupConcurrent drives one group from many goroutines while
// the epoch advances and a third of the runs truncate: every request
// gets a value computed for its own name at an epoch no older than the
// one it started at, and no flight outlives its run. Run under -race.
func TestFlightGroupConcurrent(t *testing.T) {
	var g flightGroup[fkey, fkey]
	var epoch atomic.Uint64
	var mu sync.Mutex
	store := map[string]fkey{}
	var runs, joins atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := string(rune('a' + (c+i)%4))
				if c == 0 && i%10 == 0 {
					epoch.Add(1)
				}
				start := epoch.Load()
				v, src, err := g.do(context.Background(),
					func() fkey { return fkey{name: name, epoch: epoch.Load()} },
					func(k fkey, _ bool) (fkey, bool) {
						mu.Lock()
						defer mu.Unlock()
						v, ok := store[k.name]
						return v, ok && v == k
					},
					func() (fkey, bool, error) {
						runs.Add(1)
						runtime.Gosched() // widen the window for joiners
						k := fkey{name: name, epoch: epoch.Load()}
						if i%3 == 0 {
							return k, false, nil
						}
						mu.Lock()
						store[name] = k
						mu.Unlock()
						return k, true, nil
					})
				if err != nil {
					t.Error(err)
					return
				}
				if src == joined {
					joins.Add(1)
				}
				if v.name != name || v.epoch < start {
					t.Errorf("request %q at epoch %d got a value for %q at epoch %d", name, start, v.name, v.epoch)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if len(g.flights) != 0 {
		t.Fatalf("%d flights outlived their runs", len(g.flights))
	}
	t.Logf("%d runs, %d joins for %d requests", runs.Load(), joins.Load(), 16*200)
}

// TestHitPathAllocs pins the heap work of a request served from a
// store: the shared loop's closures and generics must add none. The
// bounds are this fixture's measured counts, so any per-request heap
// work the loop adds fails the test.
func TestHitPathAllocs(t *testing.T) {
	w := buildSoakWorld(t, 91)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	ctx := context.Background()
	q := Query{Pattern: w.patterns[0]}
	req := CensusRequest{K: 3}
	for _, tc := range []struct {
		name string
		max  float64
		run  func() (bool, error)
	}{
		{"Count", 33, func() (bool, error) { r, err := svc.Count(ctx, q); return r.CacheHit, err }},
		{"Enumerate", 41, func() (bool, error) { r, err := svc.Enumerate(ctx, q); return r.CacheHit, err }},
		{"Census", 0, func() (bool, error) { r, err := svc.Census(ctx, req); return r.CacheHit, err }},
	} {
		if _, err := tc.run(); err != nil { // warm the cache
			t.Fatal(err)
		}
		if hit, err := tc.run(); err != nil || !hit {
			t.Fatalf("%s: second request hit=%v err=%v, want a cache hit", tc.name, hit, err)
		}
		if got := testing.AllocsPerRun(100, func() { tc.run() }); got > tc.max {
			t.Errorf("%s hit: %v allocs, want <= %v", tc.name, got, tc.max)
		}
	}
}
