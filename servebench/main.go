// Command servebench is the repository's serving benchmark. It runs one
// named workload against the in-process sgeserve stack — service.NewRouter
// plus service.NewRouterServer, configured as `sgeserve -targets`
// configures them — driven through Server.ServeHTTP with no socket,
// checks every reply against ground truth computed outside the timed
// runs, and prints the metrics BENCHMARK.json declares.
//
// Run it through run.sh from the repository root:
//
//	bash servebench/run.sh --workload dense-cold --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --prepare --out servebench/truth
//
// With --trace 0 the last line carries the end-to-end metrics, with
// --trace 1 the per-layer ones (after an untraced replay that gives the
// tracing overhead its base). The line before it is the run record:
// environment, sample counts, outcome counts and the percentile the tail
// resolved to. Work is fixed: --seconds sets the number of passes, never
// a deadline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parsge/internal/service"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: dense-cold, sparse-hot or sparse-mutate")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "run length; sets the fixed number of passes")
		trace   = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced replay")
		root    = flag.String("root", ".", "checkout root")
		commit  = flag.String("commit", "unknown", "commit the benchmark was built from")
		prepare = flag.Bool("prepare", false, "compute the ground truth of every workload into --out and exit")
		out     = flag.String("out", "", "directory --prepare writes to")
	)
	flag.Parse()
	if *prepare {
		exitOn(prepareTruth(*out))
		return
	}
	w, err := workloadByName(*name)
	exitOn(err)
	res, rec, err := run(w, *seed, *seconds, *trace == 1, *root)
	exitOn(err)
	rec["commit"] = *commit
	line, err := json.Marshal(map[string]any{"record": rec})
	exitOn(err)
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	exitOn(err)
	fmt.Println(string(line))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func prepareTruth(dir string) error {
	if dir == "" {
		return fmt.Errorf("--prepare needs --out")
	}
	for _, w := range workloads {
		in, err := generate(w)
		if err != nil {
			return err
		}
		start := time.Now()
		tr, err := computeTruth(in)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeTruth(truthFile(dir, w), tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d idents (%d expected refusals), %d of %d candidates left out above %d states, %v\n",
			w.name, len(tr.Idents), tr.Refusals, tr.LeftOut, tr.Candidates, tr.StateCap, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run, in the shape BENCHMARK.json declares.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run replays the workload: the timed untraced passes, then, with
// traced, as many traced passes again. Ground truth and op lists are
// ready before the first stack is built.
func run(w *workload, seed int64, seconds int, traced bool, root string) (*result, map[string]any, error) {
	in, err := generate(w)
	if err != nil {
		return nil, nil, err
	}
	tr, source, err := loadTruth(root, in)
	if err != nil {
		return nil, nil, err
	}
	r, err := newRunner(in, tr, seed)
	if err != nil {
		return nil, nil, err
	}
	r.epoch = time.Now()
	passes := passCount(w, seconds)
	var untraced, tracedPasses []*passResult
	var all, warm counts
	for i := 0; i < passes; i++ {
		p, err := r.pass(false, i)
		if err != nil {
			return nil, nil, err
		}
		if err := checkPass(p); err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, p)
		all.merge(&p.t.counts)
		warm.merge(&p.warm)
	}
	if traced {
		for i := 0; i < tracedPassCount; i++ {
			p, err := r.pass(true, passes+i)
			if err != nil {
				return nil, nil, err
			}
			if err := checkPass(p); err != nil {
				return nil, nil, err
			}
			tracedPasses = append(tracedPasses, p)
			all.merge(&p.t.counts)
			warm.merge(&p.warm)
		}
	}

	e2e := endToEnd(untraced)
	rec := record(w, seed, seconds, source, tr, r, untraced, tracedPasses, &all, e2e)
	rec["warm_outcomes"] = outcomeCounts(&warm)
	res := &result{
		// The untimed warm list is checked like every other reply.
		Correct: all.outcomes[outcomeWrongCount]+all.outcomes[outcomeError] == 0 &&
			warm.outcomes[outcomeWrongCount]+warm.outcomes[outcomeError]+warm.outcomes[outcomeTimedOut] == 0,
		Attempted: all.attempted,
		// A false shed (refused_within_cap) and an answer to an expected
		// refusal (answered_above_cap) lower ok_frac and are counted by
		// outcome in the record; failed counts replies that were wrong,
		// errored or timed out.
		Failed: all.outcomes[outcomeWrongCount] + all.outcomes[outcomeError] + all.outcomes[outcomeTimedOut],
	}
	if !traced {
		res.Metrics = e2e.metrics
		return res, rec, nil
	}
	res.Metrics = perLayer(untraced, tracedPasses, e2e)
	var tracers []*tracer
	for _, p := range tracedPasses {
		tracers = append(tracers, p.tracers...)
	}
	spans := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.csv", w.name, seed))
	if err := writeSpans(filepath.Join(root, spans), tracers); err != nil {
		return nil, nil, err
	}
	rec["spans"] = spans
	return res, rec, nil
}

// tracedPassCount is how many traced passes a --trace 1 run makes.
const tracedPassCount = 2

// e2eResult carries the end-to-end metrics and the numbers behind them.
type e2eResult struct {
	metrics             map[string]metric
	queryMS             []float64 // pooled over passes
	tailP               float64
	passQueries         int // ok query samples per pass (the fewest of any pass)
	p50Window, tailWin  float64
	opsPerPass          []float64
	updateMS, censusMS  []float64
	untracedOpsPerSec   float64
	attempted, okOps    int64
	setupSamples        []float64
	heapAfter, heapInit []float64
}

func endToEnd(passes []*passResult) *e2eResult {
	e := &e2eResult{}
	e.passQueries = -1
	for _, p := range passes {
		if n := len(p.t.queryMS); e.passQueries < 0 || n < e.passQueries {
			e.passQueries = n
		}
	}
	e.tailP = tailPercentile(e.passQueries)
	// Percentiles are taken per pass, each an independent replay on a
	// fresh stack, and reported as the median over passes: a pass's tail
	// has at least ten distinct ops beyond it, whereas pooled passes
	// would repeat the same few slow ops.
	var p50s, tails, p50Wins, tailWins []float64
	for _, p := range passes {
		p50s = append(p50s, percentile(p.t.queryMS, 50))
		tails = append(tails, percentile(p.t.queryMS, e.tailP))
		p50Wins = append(p50Wins, windowRatio(p.t.queryMS, 50))
		tailWins = append(tailWins, windowRatio(p.t.queryMS, e.tailP))
		e.queryMS = append(e.queryMS, p.t.queryMS...)
		e.updateMS = append(e.updateMS, p.t.updateMS...)
		e.censusMS = append(e.censusMS, p.t.censusMS...)
		e.opsPerPass = append(e.opsPerPass, p.opsPerSecond())
		e.setupSamples = append(e.setupSamples, p.setup.Seconds())
		e.heapAfter = append(e.heapAfter, float64(p.heapAfter)/(1<<20))
		e.heapInit = append(e.heapInit, float64(p.heapSetup)/(1<<20))
		e.attempted += p.t.attempted
		e.okOps += p.t.outcomes[outcomeOK]
	}
	e.p50Window, e.tailWin = median(p50Wins), median(tailWins)
	e.untracedOpsPerSec = median(e.opsPerPass)
	e.metrics = map[string]metric{
		"setup_s":       {median(e.setupSamples), "s"},
		"ops_per_s":     {e.untracedOpsPerSec, "1/s"},
		"query_p50_ms":  {median(p50s), "ms"},
		"query_tail_ms": {median(tails), "ms"},
		"ok_frac":       {frac(e.okOps, e.attempted), "frac"},
		"heap_mb":       {median(e.heapAfter), "MB"},
	}
	return e
}

// perLayer assembles the traced run's metrics; the runtime-memory ones
// come from the untraced passes of the same run.
func perLayer(untraced, traced []*passResult, e *e2eResult) map[string]metric {
	var l layerTally
	var st service.Stats
	var tracedOpsPerSec []float64
	for _, p := range traced {
		l.merge(&p.layers)
		addRouterStats(&st, p.stats)
		tracedOpsPerSec = append(tracedOpsPerSec, p.opsPerSecond())
	}
	var allocs, mallocs, pauses uint64
	var ops int64
	for _, p := range untraced {
		allocs += p.allocs
		mallocs += p.mallocs
		pauses += p.gcPauseNS
		ops += p.t.attempted
	}
	tracedRate := median(tracedOpsPerSec)
	m := map[string]metric{
		"http.self_ms":          {percentile(l.selfMS, 50), "ms"},
		"graphio.parse_ms":      {percentile(l.parseMS, 50), "ms"},
		"http.reply_kb":         {float64(l.replyBytes) / 1024 / float64(max(l.queryReplies, 1)), "KB"},
		"canon.ms":              {percentile(l.canonMS, 50), "ms"},
		"cache.hit_frac":        {frac(st.CacheHits, st.CacheHits+st.CacheMisses), "frac"},
		"flight.shared":         {float64(st.Shared), "count"},
		"cache.evictions":       {float64(st.CacheEvictions), "count"},
		"census_cache.hit_frac": {frac(st.CensusCacheHits, st.CensusCacheHits+st.CensusCacheMisses), "frac"},
		"estimate.ms":           {percentile(l.estimateMS, 50), "ms"},
		"estimate.hit_frac":     {frac(st.EstimateHits, st.EstimateHits+st.EstimateMisses), "frac"},
		"class.small":           {float64(l.classSmall), "count"},
		"class.large":           {float64(l.classLarge), "count"},
		"class.shed":            {float64(l.shed), "count"},
		"class.false_shed":      {float64(l.falseShed), "count"},
		"mispredict.small":      {float64(st.MispredictSmall), "count"},
		"mispredict.large":      {float64(st.MispredictLarge), "count"},
		"admit.wait_ms_p50":     {percentile(l.waitMS, 50), "ms"},
		"admit.wait_ms_tail":    {percentile(l.waitMS, tailPercentile(len(l.waitMS))), "ms"},
		"admit.queue_timeouts":  {float64(st.QueueTimeouts), "count"},
		"preproc.ms":            {percentile(l.preprocMS, 50), "ms"},
		"preproc.unary_ms":      {percentile(l.unaryMS, 50), "ms"},
		"preproc.ac_ms":         {percentile(l.acMS, 50), "ms"},
		"preproc.induced_ac_ms": {percentile(l.inducedACMS, 50), "ms"},
		"domain.final":          {float64(l.domainFinal), "count"},
		"search.states":         {float64(l.states), "count"},
		"search.match_ms_p50":   {percentile(l.matchMS, 50), "ms"},
		"search.match_ms_tail":  {percentile(l.matchMS, tailPercentile(len(l.matchMS))), "ms"},
		"search.ns_per_state":   {float64(l.matchNS) / float64(max(l.states, 1)), "ns"},
		"search.matches":        {float64(l.matches), "count"},
		"steal.work_speedup":    {frac(l.parStates, l.parMaxWorker), "ratio"},
		"steal.steals":          {float64(l.steals), "count"},
		"census.ms":             {percentile(l.censusMS, 50), "ms"},
		"census.memo_hit_frac":  {frac(l.memoHits, l.memoHits+l.memoMisses), "frac"},
		"census.work_speedup":   {frac(l.censusParSubgraphs, l.censusMaxWorker), "ratio"},
		"census.subgraphs":      {float64(l.censusSubgraphs), "count"},
		"census_p50_ms":         {percentile(e.censusMS, 50), "ms"},
		"update.ms":             {percentile(l.updateMS, 50), "ms"},
		"update.touched":        {float64(l.updateTouched), "count"},
		"update_p50_ms":         {percentile(e.updateMS, 50), "ms"},
		"requery.miss_frac":     {frac(l.requeryMisses, l.requeries), "frac"},
		"mem.alloc_kb_per_op":   {float64(allocs) / 1024 / float64(max(ops, 1)), "KB"},
		"mem.mallocs_per_op":    {float64(mallocs) / float64(max(ops, 1)), "count"},
		"gc.pause_ms":           {float64(pauses) / 1e6 / float64(len(untraced)), "ms"},
		"mem.setup_heap_mb":     {median(e.heapInit), "MB"},
		"trace.ops_per_s":       {tracedRate, "1/s"},
		"trace.overhead_frac":   {e.untracedOpsPerSec/tracedRate - 1, "frac"},
	}
	return m
}

func outcomeCounts(t *counts) map[string]int64 {
	out := make(map[string]int64)
	for k, n := range t.outcomes {
		out[outcome(k).String()] = n
	}
	return out
}

// clientSeconds is each client's median replay time over the passes:
// when the clients of a workload finish far apart, the pass ends with
// one client alone.
func clientSeconds(passes []*passResult) []float64 {
	var out []float64
	for c := 0; len(passes) > 0 && c < len(passes[0].clientWall); c++ {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.clientWall[c].Seconds())
		}
		out = append(out, median(xs))
	}
	return out
}

// quantileLadder summarizes a latency distribution, so the record shows
// where each reported percentile sits among the latency modes.
func quantileLadder(xs []float64) map[string]float64 {
	out := make(map[string]float64)
	if len(xs) == 0 {
		return out
	}
	s := sorted(xs)
	for _, p := range []float64{1, 10, 25, 40, 45, 50, 55, 60, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 100} {
		out[fmt.Sprintf("p%g", p)] = s[rank(len(s), p)]
	}
	return out
}

// record is the run's provenance and the numbers behind its metrics.
func record(w *workload, seed int64, seconds int, source string, tr *truth, r *runner,
	untraced, traced []*passResult, all *counts, e *e2eResult) map[string]any {
	var listLens []int
	for _, l := range r.lists {
		listLens = append(listLens, len(l))
	}
	rec := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"truth": map[string]any{
			"source": source, "state_cap": tr.StateCap, "candidates": tr.Candidates,
			"left_out_above_cap": tr.LeftOut, "expected_refusals": tr.Refusals, "idents": len(tr.Idents),
		},
		"clients":        len(r.lists),
		"ops_per_client": listLens,
		"passes":         len(untraced),
		"traced_passes":  len(traced),
		"outcomes":       outcomeCounts(all),
		"samples": map[string]int{
			"query_ok": len(e.queryMS), "query_ok_per_pass": e.passQueries,
			"update_ok": len(e.updateMS), "census_ok": len(e.censusMS),
			"setup": len(e.setupSamples), "passes": len(untraced),
		},
		"query_tail_percentile": e.tailP,
		"mode_window_ratio":     map[string]float64{"query_p50": e.p50Window, "query_tail": e.tailWin},
		"ops_per_s_untraced":    e.untracedOpsPerSec,
		"client_seconds_median": clientSeconds(untraced),
		"ops_per_s_per_pass":    e.opsPerPass,
		"setup_s_samples":       e.setupSamples,
		"heap_mb_per_pass":      e.heapAfter,
		"query_ms_quantiles":    quantileLadder(e.queryMS),
	}
	if len(traced) > 0 {
		var rates []float64
		var l layerTally
		for _, p := range traced {
			rates = append(rates, p.opsPerSecond())
			l.merge(&p.layers)
		}
		rec["ops_per_s_traced"] = median(rates)
		rec["layer_samples"] = map[string]int{
			"http": len(l.httpMS), "router_query": len(l.selfMS), "parse": len(l.parseMS), "canon": len(l.canonMS),
			"estimate": len(l.estimateMS), "enumerate": len(l.matchMS), "plan": len(l.unaryMS),
			"census": len(l.censusMS), "update": len(l.updateMS), "admit_wait": len(l.waitMS),
		}
	}
	return rec
}
