package steal

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// rangeTask is a synthetic divisible workload: process the integers in
// [lo, hi). The expected total is independent of scheduling, so lost or
// duplicated work is detected exactly.
type rangeTask struct {
	lo, hi int64
}

// rangeRunner walks its range one integer at a time, adding each into a
// global sum; the part of the range not yet walked is the worker's
// private deque, and Split hands a thief the upper half of it.
type rangeRunner struct {
	sum       atomic.Int64
	count     atomic.Int64
	splits    atomic.Int64 // Split calls that handed work over
	spinWork  int          // artificial work per integer to make stealing worthwhile
	fromFront bool         // Split hands over the lower half instead
	left      []rangeTask  // per worker: the rest of the running task
}

func newRangeRunner(workers, spinWork int) *rangeRunner {
	return &rangeRunner{spinWork: spinWork, left: make([]rangeTask, workers)}
}

func (r *rangeRunner) Execute(w *Worker[rangeTask], t rangeTask) {
	left := &r.left[w.ID]
	*left = t
	for left.lo < left.hi {
		i := left.lo
		left.lo++
		x := 0
		for k := 0; k < r.spinWork; k++ {
			x += k
		}
		_ = x
		r.sum.Add(i)
		r.count.Add(1)
		w.Poll(left.hi > left.lo)
	}
}

func (r *rangeRunner) Split(w *Worker[rangeTask]) (rangeTask, bool) {
	left := &r.left[w.ID]
	n := left.hi - left.lo
	if n == 0 {
		return rangeTask{}, false
	}
	r.splits.Add(1)
	mid := left.lo + n/2
	if r.fromFront {
		// The lower half is what the victim would walk next: the
		// ablation of §3.2(ii).
		t := rangeTask{left.lo, left.hi - n/2}
		left.lo = t.hi
		return t, true
	}
	t := rangeTask{mid, left.hi}
	left.hi = mid
	return t, true
}

// runRange executes [0, n) over the given config and returns the stats.
func runRange(t *testing.T, cfg Config, n int64, r *rangeRunner) Stats {
	t.Helper()
	rt, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	// Deal initial chunks round-robin as the engines do.
	const chunk = 64
	w := 0
	for lo := int64(0); lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		rt.Seed(w, rangeTask{lo, hi})
		w = (w + 1) % cfg.Workers
	}
	done := make(chan Stats, 1)
	go func() { done <- rt.Run(nil) }()
	select {
	case st := <-done:
		return st
	case <-time.After(30 * time.Second):
		t.Fatal("runtime did not terminate")
		return Stats{}
	}
}

func checkSum(t *testing.T, r *rangeRunner, n int64) {
	t.Helper()
	want := n * (n - 1) / 2
	if got := r.sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d (lost or duplicated tasks)", got, want)
	}
	if got := r.count.Load(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

// checkGrants holds every grant to one received steal and to one Split
// call that handed work over.
func checkGrants(t *testing.T, st Stats, r *rangeRunner, label string) {
	t.Helper()
	var granted int64
	for _, g := range st.StealsGranted {
		granted += g
	}
	if granted != st.TotalSteals() {
		t.Errorf("%s: granted %d != received %d", label, granted, st.TotalSteals())
	}
	if got := r.splits.Load(); got != granted {
		t.Errorf("%s: Split handed work over %d times for %d grants", label, got, granted)
	}
}

func TestSingleWorker(t *testing.T) {
	r := newRangeRunner(1, 0)
	st := runRange(t, Config{Workers: 1, Stealing: true}, 1000, r)
	checkSum(t, r, 1000)
	if st.TotalSteals() != 0 {
		t.Errorf("single worker stole %d tasks", st.TotalSteals())
	}
	if st.TokenRounds < 1 {
		t.Error("termination without any token round")
	}
}

func TestManyWorkers(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8, 16} {
		r := newRangeRunner(workers, 50)
		st := runRange(t, Config{Workers: workers, Stealing: true, Seed: int64(workers)}, 20000, r)
		checkSum(t, r, 20000)
		if got := st.TotalSteals(); got < 0 {
			t.Errorf("workers=%d: negative steals %d", workers, got)
		}
		checkGrants(t, st, r, fmt.Sprintf("workers=%d", workers))
	}
}

func TestNoStealing(t *testing.T) {
	r := newRangeRunner(4, 0)
	st := runRange(t, Config{Workers: 4, Stealing: false}, 5000, r)
	checkSum(t, r, 5000)
	if st.TotalSteals() != 0 {
		t.Fatalf("stealing disabled but %d steals happened", st.TotalSteals())
	}
}

// TestStealFromFrontAblation: a runner whose Split hands over the front
// of its remaining work — what parallel.Options.StealFromFront does with
// its deepest frame — loses and duplicates nothing either.
func TestStealFromFrontAblation(t *testing.T) {
	r := newRangeRunner(4, 20)
	r.fromFront = true
	st := runRange(t, Config{Workers: 4, Stealing: true}, 10000, r)
	checkSum(t, r, 10000)
	checkGrants(t, st, r, "front")
}

func TestUnevenSeeding(t *testing.T) {
	// All work starts on worker 0; others must obtain it by stealing.
	r := newRangeRunner(8, 100)
	rt, err := New(Config{Workers: 8, Stealing: true, Seed: 7}, r)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	rt.Seed(0, rangeTask{0, n})
	done := make(chan Stats, 1)
	go func() { done <- rt.Run(nil) }()
	var st Stats
	select {
	case st = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runtime did not terminate")
	}
	checkSum(t, r, n)
	if st.TotalSteals() == 0 {
		t.Error("no steals despite all work seeded on worker 0")
	}
}

func TestEmptyRun(t *testing.T) {
	r := newRangeRunner(4, 0)
	st := runRange(t, Config{Workers: 4, Stealing: true}, 0, r)
	if r.count.Load() != 0 {
		t.Fatal("processed tasks in empty run")
	}
	if st.TokenRounds < 1 {
		t.Error("empty run should still complete a token round")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New[int](Config{Workers: 0}, nil); err == nil {
		t.Fatal("Workers=0 accepted")
	}
}

// blockRunner blocks inside Execute until released, to exercise Cancel.
type blockRunner struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockRunner) Execute(w *Worker[rangeTask], t rangeTask) {
	b.started <- struct{}{}
	<-b.release
}
func (b *blockRunner) Split(*Worker[rangeTask]) (rangeTask, bool) { return rangeTask{}, false }

func TestCancel(t *testing.T) {
	br := &blockRunner{started: make(chan struct{}, 1), release: make(chan struct{})}
	rt, err := New(Config{Workers: 4, Stealing: true}, br)
	if err != nil {
		t.Fatal(err)
	}
	rt.Seed(0, rangeTask{0, 1})
	done := make(chan Stats, 1)
	go func() { done <- rt.Run(nil) }()
	<-br.started // worker 0 is now blocked in Execute
	rt.Cancel()
	close(br.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled runtime did not stop")
	}
	if !rt.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
}

// TestContextCancel: cancelling the context passed to Run stops the
// runtime even when every worker is idle (no task ever polls anything).
func TestContextCancel(t *testing.T) {
	br := &blockRunner{started: make(chan struct{}, 1), release: make(chan struct{})}
	rt, err := New(Config{Workers: 4, Stealing: true}, br)
	if err != nil {
		t.Fatal(err)
	}
	rt.Seed(0, rangeTask{0, 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Stats, 1)
	go func() { done <- rt.Run(ctx) }()
	<-br.started // worker 0 is now blocked in Execute
	cancel()
	close(br.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("context cancellation did not stop the runtime")
	}
	if !rt.Cancelled() {
		t.Fatal("Cancelled() false after ctx cancel")
	}
}

// allParked waits until every worker but skip is parked, or the deadline
// passes.
func allParked[T any](rt *Runtime[T], skip int, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		parked := true
		for i := range rt.cells {
			if i != skip && !rt.cells[i].parked.Load() {
				parked = false
				break
			}
		}
		if parked {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return false
}

// gatedRunner is a rangeRunner whose worker 0 waits, before its first
// task, until every other worker has parked, so the run starts from the
// state the wakeups must get out of.
type gatedRunner struct {
	*rangeRunner
	rt     *Runtime[rangeTask]
	gated  atomic.Bool
	parked atomic.Bool // the others parked before worker 0 began
}

func (g *gatedRunner) Execute(w *Worker[rangeTask], t rangeTask) {
	if w.ID == 0 && !g.gated.Swap(true) {
		g.parked.Store(allParked(g.rt, 0, 5*time.Second))
	}
	g.rangeRunner.Execute(w, t)
}

// TestParkedWorkersWake: with all work seeded on worker 0, the other
// workers park before it advertises anything; the first advertisement
// must wake them into stealing, and the run must still conserve every
// integer, terminate, and leave no goroutine behind. Run it under
// -cpu 1,2,4: with fewer processors than workers the parked workers
// must also wake for the token.
func TestParkedWorkersWake(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := &gatedRunner{rangeRunner: newRangeRunner(workers, 50)}
			rt, err := New[rangeTask](Config{Workers: workers, Stealing: true, Seed: int64(workers)}, g)
			if err != nil {
				t.Fatal(err)
			}
			g.rt = rt
			const n = 20000
			rt.Seed(0, rangeTask{0, n})
			done := make(chan Stats, 1)
			go func() { done <- rt.Run(nil) }()
			var st Stats
			select {
			case st = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("runtime did not terminate")
			}
			if !g.parked.Load() {
				t.Error("idle workers did not park before worker 0 advertised work")
			}
			checkSum(t, g.rangeRunner, n)
			checkGrants(t, st, g.rangeRunner, "gated")
			if st.TokenRounds < 1 {
				t.Errorf("TokenRounds = %d", st.TokenRounds)
			}
			// The goroutine running Run has sent its result, so it and every
			// worker are on their way out.
			end := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(end) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Fatalf("%d goroutines after Run, %d before", got, base)
			}
		})
	}
}

// cancelWaitRunner's Execute sits in the run until it is cancelled,
// advertising nothing, so every other worker parks.
type cancelWaitRunner struct {
	started chan struct{}
}

func (c *cancelWaitRunner) Execute(w *Worker[rangeTask], _ rangeTask) {
	close(c.started)
	for !w.Cancelled() {
		time.Sleep(100 * time.Microsecond)
	}
}
func (c *cancelWaitRunner) Split(*Worker[rangeTask]) (rangeTask, bool) { return rangeTask{}, false }

// TestCancelWhileParked: every worker but one is parked behind a blocked
// Execute, which watches only the runtime's cancel flag. Cancelling the
// context must reach the parked workers, which cancel the runtime, and
// Run must return within 100 ms.
func TestCancelWhileParked(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := &cancelWaitRunner{started: make(chan struct{})}
			rt, err := New[rangeTask](Config{Workers: workers, Stealing: true}, c)
			if err != nil {
				t.Fatal(err)
			}
			rt.Seed(0, rangeTask{0, 1})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				rt.Run(ctx)
				close(done)
			}()
			<-c.started
			if !allParked(rt, 0, 10*time.Second) {
				t.Fatal("idle workers did not park")
			}
			cancelled := time.Now()
			cancel()
			select {
			case <-done:
				if elapsed := time.Since(cancelled); elapsed > 100*time.Millisecond {
					t.Fatalf("Run returned %v after cancel, want within 100ms", elapsed)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("context cancellation did not stop the runtime")
			}
		})
	}
}

// TestQuickConservation: across random worker counts, seeds and stealing
// configurations, no task is ever lost or duplicated.
func TestQuickConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, workersRaw uint8, stealing bool) bool {
		workers := 1 + int(workersRaw%8)
		r := newRangeRunner(workers, 10)
		rt, err := New(Config{Workers: workers, Stealing: stealing, Seed: seed}, r)
		if err != nil {
			return false
		}
		const n = 3000
		w := 0
		for lo := int64(0); lo < n; lo += 97 {
			hi := lo + 97
			if hi > n {
				hi = n
			}
			rt.Seed(w, rangeTask{lo, hi})
			w = (w + 1) % workers
		}
		rt.Run(nil)
		return r.sum.Load() == n*(n-1)/2 && r.count.Load() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRuntimeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRangeRunner(4, 0)
		rt, _ := New(Config{Workers: 4, Stealing: true, Seed: 1}, r)
		rt.Seed(0, rangeTask{0, 4096})
		rt.Run(nil)
	}
}

func TestWorkerAccessors(t *testing.T) {
	r := newRangeRunner(2, 0)
	rt, err := New(Config{Workers: 2, Stealing: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	w := &rt.workers[0]
	if w.QueueLen() != 0 {
		t.Fatal("fresh worker deque not empty")
	}
	rt.Seed(0, rangeTask{0, 1})
	if w.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d after Seed", w.QueueLen())
	}
	if w.Cancelled() {
		t.Fatal("Cancelled before Cancel")
	}
	rt.Cancel()
	if !w.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	rt.Run(nil) // drains nothing (cancelled); must return promptly
}

func TestTokenRoundsGrowWithIdleTime(t *testing.T) {
	// A run with work completes with at least one round; the counter is
	// monotonic and small for quick runs.
	r := newRangeRunner(2, 0)
	st := runRange(t, Config{Workers: 2, Stealing: true, Seed: 3}, 500, r)
	if st.TokenRounds < 1 {
		t.Fatalf("TokenRounds = %d", st.TokenRounds)
	}
	if st.Rejects < 0 {
		t.Fatal("negative rejects")
	}
}
