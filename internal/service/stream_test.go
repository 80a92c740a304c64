package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"parsge"
	"parsge/internal/testutil"
)

// TestStreamTimeoutReleasesTokens: a stream whose consumer reads one
// match and then neither drains nor cancels must give its admission
// tokens back when the query's timeout fires — the run and its sends
// share the timeout-bounded context — and, once drained, end truncated
// without an error.
func TestStreamTimeoutReleasesTokens(t *testing.T) {
	_, svc, gp := blockingWorld(t, RouterConfig{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // on the way out only: the consumer below never cancels
	matches, end, err := svc.Stream(ctx, Query{Pattern: gp, Options: parsge.Options{
		Semantics: parsge.Homomorphism, Timeout: 200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().TokensInUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream still holds %d tokens 5s after its 200ms timeout", svc.Stats().TokensInUse)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for range matches {
	}
	e := <-end
	if e.Err != nil || !e.Result.TimedOut {
		t.Fatalf("timed-out stream ended with err=%v timedOut=%v, want a truncated result", e.Err, e.Result.TimedOut)
	}
}

// TestStreamEndTruncation: a stream's terminal event must report a
// complete stream as such — its Result.Matches equal to the streamed
// count and the oracle — and a cancelled stream as truncated
// (Result.TimedOut), delivered strictly after the matches channel
// closed, so "end received" implies "drain terminates".
func TestStreamEndTruncation(t *testing.T) {
	w := buildSoakWorld(t, 1)
	_, svc := soloRouter(t, w.tgt, RouterConfig{})
	gp := w.patterns[0]
	matches, end, err := svc.Stream(context.Background(), Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.SubgraphIso}})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for m := range matches {
		got++
		verifyMapping(t, gp, w.gt, m.Mapping, parsge.SubgraphIso)
	}
	e := <-end
	if e.Err != nil || e.Result.TimedOut {
		t.Fatalf("complete stream reported err=%v truncated=%v", e.Err, e.Result.TimedOut)
	}
	if e.Result.Matches != got {
		t.Fatalf("terminal Result.Matches = %d, streamed %d", e.Result.Matches, got)
	}
	if want := w.oracle[0][parsge.SubgraphIso]; got != want {
		t.Fatalf("streamed %d matches, oracle %d", got, want)
	}

	// Cancelled stream: far more matches than the channel buffer, so the
	// run is genuinely mid-flight when the consumer walks away.
	_, big, hp := blockingWorld(t, RouterConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	matches, end, err = big.Stream(ctx, Query{Pattern: hp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
	if err != nil {
		t.Fatal(err)
	}
	<-matches
	cancel()
	select {
	case e = <-end:
	case <-time.After(10 * time.Second):
		t.Fatal("terminal event never arrived after cancellation")
	}
	if e.Err != nil {
		t.Fatalf("cancelled stream errored: %v", e.Err)
	}
	if !e.Result.TimedOut {
		t.Fatal("cancelled stream not reported as truncated")
	}
	// The matches channel is closed by the time the end event exists:
	// draining what is buffered must reach the close without blocking.
drain:
	for {
		select {
		case _, ok := <-matches:
			if !ok {
				break drain
			}
		default:
			t.Fatal("end event delivered while the matches channel was still open")
		}
	}
}

// TestStreamCancelTearsDown abandons a stream mid-consumption:
// cancelling the context must end the stream, close the channel, give
// the tokens back and let every goroutine of the run exit even though
// nobody drains the remaining matches — for a stream admitted small and
// for one admitted large, whose steal pool must exit too.
func TestStreamCancelTearsDown(t *testing.T) {
	for _, cfg := range []RouterConfig{{Workers: 2}, {Workers: 2, SmallLogDomain: 0.001}} {
		_, svc, gp := blockingWorld(t, cfg)
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		matches, end, err := svc.Stream(ctx, Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}})
		if err != nil {
			t.Fatal(err)
		}
		// Take at most one match, then walk away without draining.
		select {
		case <-matches:
		case <-time.After(5 * time.Second):
		}
		cancel()
		select {
		case e := <-end:
			if e.Err != nil {
				t.Fatal(e.Err)
			}
			if !e.Result.TimedOut {
				t.Fatal("cancelled stream not reported as truncated")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not end after ctx cancellation")
		}
		// The channel must be closed (drainable) after the end event.
		for range matches {
		}
		deadline := time.Now().Add(5 * time.Second)
		for (runtime.NumGoroutine() > before+2 || svc.Stats().TokensInUse != 0) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Fatalf("SmallLogDomain %v: goroutines leaked: %d before stream, %d after teardown", cfg.SmallLogDomain, before, n)
		}
		if n := svc.Stats().TokensInUse; n != 0 {
			t.Fatalf("SmallLogDomain %v: %d tokens still held after teardown", cfg.SmallLogDomain, n)
		}
	}
}

// TestStreamDrainToCompletion: a stream drained to the end delivers
// every match exactly once, each a valid embedding, and its count
// equals the terminal Result and the oracle — admitted small, and
// admitted large so Visit runs concurrently on two steal workers. The
// complete stream fills the cache, and the replay that follows passes
// the same checks.
func TestStreamDrainToCompletion(t *testing.T) {
	for _, tc := range []struct {
		cfg   RouterConfig
		large bool
	}{
		{RouterConfig{Workers: 2}, false},
		{RouterConfig{Workers: 2, SmallLogDomain: 0.001}, true},
	} {
		_, svc, gp := blockingWorld(t, tc.cfg)
		gt := svc.tgt.Graph()
		want := testutil.BruteCountSem(gp, gt, parsge.Homomorphism)
		q := Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism}}
		for _, pass := range []string{"miss", "replay"} {
			matches, end, err := svc.Stream(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			for m := range matches {
				verifyMapping(t, gp, gt, m.Mapping, parsge.Homomorphism)
				k := fmt.Sprint(m.Mapping)
				if seen[k] {
					t.Fatalf("large=%v %s: mapping %v streamed twice", tc.large, pass, m.Mapping)
				}
				seen[k] = true
			}
			e := <-end
			if e.Err != nil || e.Result.TimedOut {
				t.Fatalf("large=%v %s: complete stream reported err=%v truncated=%v", tc.large, pass, e.Err, e.Result.TimedOut)
			}
			if got := int64(len(seen)); got != want || e.Result.Matches != want {
				t.Fatalf("large=%v %s: streamed %d, Result.Matches %d, oracle %d", tc.large, pass, got, e.Result.Matches, want)
			}
		}
		st := svc.Stats()
		if tc.large && st.Parallel != 1 || !tc.large && st.Sequential != 1 {
			t.Fatalf("large=%v: Sequential/Parallel = %d/%d, want the one run admitted accordingly", tc.large, st.Sequential, st.Parallel)
		}
		if st.CacheHits != 1 {
			t.Fatalf("large=%v: CacheHits = %d, want the second stream replayed from the cache", tc.large, st.CacheHits)
		}
	}
}

// TestStreamReplayHonorsTimeout: a cache-hit replay whose consumer
// reads one match and then neither drains nor cancels must end when the
// query's timeout fires, as the miss path's run does: the end event
// arrives undrained and truncated, the replay's goroutine exits, and
// Close drains.
func TestStreamReplayHonorsTimeout(t *testing.T) {
	r, svc, gp := blockingWorld(t, RouterConfig{Workers: 2})
	before := runtime.NumGoroutine()
	q := Query{Pattern: gp, Options: parsge.Options{Semantics: parsge.Homomorphism, Timeout: 200 * time.Millisecond}}
	matches, end, err := svc.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for range matches {
	}
	if e := <-end; e.Err != nil || e.Result.TimedOut || e.Result.Matches != 1452 {
		t.Fatalf("first stream ended with err=%v timedOut=%v matches=%d, want all 1452", e.Err, e.Result.TimedOut, e.Result.Matches)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // on the way out only: the consumer below never cancels
	matches, end, err = svc.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	<-matches
	if hits := svc.Stats().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d, want the second stream replayed from the cache", hits)
	}
	select {
	case e := <-end:
		if e.Err != nil || !e.Result.TimedOut {
			t.Fatalf("timed-out replay ended with err=%v timedOut=%v, want a truncated result", e.Err, e.Result.TimedOut)
		}
	case <-time.After(time.Second):
		t.Fatal("replay did not end within 1s of its 200ms timeout")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("replay goroutine outlived its end event: %d goroutines before, %d after 1s", before, n)
	}
	for range matches {
	}
	closeCtx, closeCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer closeCancel()
	if err := r.Close(closeCtx); err != nil {
		t.Fatalf("Close after the replay's timeout: %v", err)
	}
}
