package steal

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// rangeTask is a synthetic divisible workload: process the integers in
// [lo, hi). Execute splits big ranges and "processes" small ones by
// adding them into a global sum. The expected total is independent of
// scheduling, so lost or duplicated tasks are detected exactly.
type rangeTask struct {
	lo, hi int64
}

type rangeRunner struct {
	sum       atomic.Int64
	count     atomic.Int64
	packCalls atomic.Int64
	spinWork  int // artificial work per leaf to make stealing worthwhile
}

func (r *rangeRunner) Execute(w *Worker[rangeTask], t rangeTask) {
	n := t.hi - t.lo
	if n > 4 {
		mid := t.lo + n/2
		w.Push(rangeTask{t.lo, mid})
		w.Push(rangeTask{mid, t.hi})
		return
	}
	for i := t.lo; i < t.hi; i++ {
		x := 0
		for k := 0; k < r.spinWork; k++ {
			x += k
		}
		_ = x
		r.sum.Add(i)
		r.count.Add(1)
	}
}

func (r *rangeRunner) PackSteal(_ *Worker[rangeTask], t rangeTask) rangeTask {
	r.packCalls.Add(1)
	return t
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

func TestSingleWorker(t *testing.T) {
	r := &rangeRunner{}
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
		r := &rangeRunner{spinWork: 50}
		st := runRange(t, Config{Workers: workers, Stealing: true, Seed: int64(workers)}, 20000, r)
		checkSum(t, r, 20000)
		if got := st.TotalSteals(); got < 0 {
			t.Errorf("workers=%d: negative steals %d", workers, got)
		}
		var granted int64
		for _, g := range st.StealsGranted {
			granted += g
		}
		if granted != st.TotalSteals() {
			t.Errorf("workers=%d: granted %d != received %d", workers, granted, st.TotalSteals())
		}
		if r.packCalls.Load() != granted {
			t.Errorf("workers=%d: PackSteal called %d times for %d grants", workers, r.packCalls.Load(), granted)
		}
	}
}

func TestNoStealing(t *testing.T) {
	r := &rangeRunner{}
	st := runRange(t, Config{Workers: 4, Stealing: false}, 5000, r)
	checkSum(t, r, 5000)
	if st.TotalSteals() != 0 {
		t.Fatalf("stealing disabled but %d steals happened", st.TotalSteals())
	}
}

func TestStealFromFrontAblation(t *testing.T) {
	r := &rangeRunner{spinWork: 20}
	st := runRange(t, Config{Workers: 4, Stealing: true, StealFromFront: true}, 10000, r)
	checkSum(t, r, 10000)
	_ = st
}

func TestUnevenSeeding(t *testing.T) {
	// All work starts on worker 0; others must obtain it by stealing.
	r := &rangeRunner{spinWork: 100}
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
	r := &rangeRunner{}
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
func (b *blockRunner) PackSteal(_ *Worker[rangeTask], t rangeTask) rangeTask { return t }

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

// TestQuickConservation: across random worker counts, seeds and stealing
// configurations, no task is ever lost or duplicated.
func TestQuickConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, workersRaw uint8, stealing bool) bool {
		workers := 1 + int(workersRaw%8)
		r := &rangeRunner{spinWork: 10}
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
		r := &rangeRunner{}
		rt, _ := New(Config{Workers: 4, Stealing: true, Seed: 1}, r)
		rt.Seed(0, rangeTask{0, 4096})
		rt.Run(nil)
	}
}

func TestWorkerAccessors(t *testing.T) {
	r := &rangeRunner{}
	rt, err := New(Config{Workers: 2, Stealing: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	w := rt.workers[0]
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
	r := &rangeRunner{}
	st := runRange(t, Config{Workers: 2, Stealing: true, Seed: 3}, 500, r)
	if st.TokenRounds < 1 {
		t.Fatalf("TokenRounds = %d", st.TokenRounds)
	}
	if st.Rejects < 0 {
		t.Fatal("negative rejects")
	}
}
