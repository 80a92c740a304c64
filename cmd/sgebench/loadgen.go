package main

// Loadgen mode: replay a mixed query workload against a running sgeserve
// instance. Patterns are extracted from the same target file the server
// loaded, serialized through a shared label table so label strings agree,
// and issued by N concurrent clients cycling through the three matching
// semantics with a sprinkle of mapping and streaming requests — the
// closest thing to production traffic the bench harness can synthesize.
//
//	sgeserve  -target data/PPIS32-targets.gff &
//	sgebench  -loadgen http://localhost:8642 -loadgen-target data/PPIS32-targets.gff \
//	          -clients 8 -duration 10s
//
// The workload goes to the file's first section under the name sgeserve
// gives it; -loadgen-targets round-robins it across named targets
// instead, and an optional -update-target receives a steady trickle of
// edge-update batches while the others are queried — the CI smoke shape
// for mutation under load:
//
//	sgebench  -loadgen http://localhost:8642 -loadgen-target data/PPIS32-targets.gff \
//	          -loadgen-targets PPIS32-t00,PPIS32-t01 -update-target PPIS32-t02
//
// The run reports throughput, latency percentiles, cache hit rate and
// the server-side plan histogram, and fails (exit 1) when no request
// succeeded, when counts were inconsistent between requests for the same
// query identity — keyed by (target, pattern, semantics, epoch), since a
// mutated target legitimately changes counts across epochs but must
// never disagree within one — or when the server reports an empty plan
// histogram. These are the assertions the CI smoke jobs stand on.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"parsge"
	"parsge/internal/graphio"
	"parsge/internal/service"
	"parsge/internal/testutil"
)

type loadgenConfig struct {
	URL        string
	TargetFile string
	Clients    int
	Duration   time.Duration
	Patterns   int
	Seed       int64
	// CensusFrac is the fraction of requests issued as POST /census
	// (k cycling 3..4) instead of pattern queries, mixing the service's
	// heaviest always-large workload into the stream.
	CensusFrac float64
	// ExplosiveFrac is the fraction of requests issued as a
	// deliberately explosive probe: a star pattern rooted at the
	// target's max-degree vertex, matched under homomorphism, whose
	// count blows up combinatorially. A cost-model server sheds these
	// with 429 (counted, not errored); a static server burns its full
	// timeout on each one.
	ExplosiveFrac float64
	// Targets names the targets queries and censuses round-robin
	// across, via /targets/{name}/...; empty means the file's first
	// section. Names follow the server's convention: GFF section names,
	// with "t<i>" for unnamed or duplicate sections.
	Targets []string
	// UpdateTarget, when set, names a target that receives a steady
	// stream of small edge-update batches for the whole run. It may
	// also appear in Targets: epoch-keyed count consistency makes
	// querying a mutating target safe.
	UpdateTarget string
}

type loadgenResult struct {
	requests, errors, cacheHits, streams, censuses int64
	explosives, sheds                              int64 // explosive probes issued; requests shed with 429
	updates                                        int64 // applied update batches
	lastEpoch                                      uint64
	latencies                                      []float64 // ms, successful requests
	countMismatch                                  string
}

// queryTarget is one round-robin destination: base is the URL prefix the
// /query and /census paths hang off. explosive is the serialized star
// probe for this target (empty when the explosive mix is off).
type queryTarget struct {
	name      string
	base      string
	texts     []string
	explosive string
}

func runLoadgen(cfg loadgenConfig) error {
	if cfg.TargetFile == "" {
		return fmt.Errorf("-loadgen needs -loadgen-target (the file the server serves, to extract patterns from)")
	}
	f, err := os.Open(cfg.TargetFile)
	if err != nil {
		return err
	}
	table := graphio.NewLabelTable()
	graphs, err := parsge.ReadGraphs(f, table)
	f.Close()
	if err != nil {
		return err
	}
	if len(graphs) == 0 {
		return fmt.Errorf("%s: no graph sections", cfg.TargetFile)
	}

	// Name the sections exactly as sgeserve does, so target names
	// resolve to the same graphs the server routes.
	byName := make(map[string]*parsge.Graph, len(graphs))
	seen := make(map[string]bool, len(graphs))
	var first string
	for i, ng := range graphs {
		name := ng.Name
		if name == "" || seen[name] {
			name = fmt.Sprintf("t%d", i)
		}
		if i == 0 {
			first = name
		}
		seen[name] = true
		byName[name] = ng.Graph
	}
	if len(cfg.Targets) == 0 {
		cfg.Targets = []string{first}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var qts []queryTarget
	for _, name := range cfg.Targets {
		g, ok := byName[name]
		if !ok {
			return fmt.Errorf("-loadgen-targets: no section named %q in %s", name, cfg.TargetFile)
		}
		texts, err := patternPool(rng, g, cfg.Patterns, table)
		if err != nil {
			return err
		}
		qt := queryTarget{name: name, base: cfg.URL + "/targets/" + name, texts: texts}
		if cfg.ExplosiveFrac > 0 {
			if qt.explosive, err = explosivePattern(g, table); err != nil {
				return err
			}
		}
		qts = append(qts, qt)
	}
	var updateGraph *parsge.Graph
	if cfg.UpdateTarget != "" {
		g, ok := byName[cfg.UpdateTarget]
		if !ok {
			return fmt.Errorf("-update-target: no section named %q in %s", cfg.UpdateTarget, cfg.TargetFile)
		}
		updateGraph = g
	}
	semantics := []string{"iso", "induced", "hom"}

	// Wait for the server to come up (the CI smoke job starts it
	// concurrently).
	client := &http.Client{Timeout: 60 * time.Second}
	if err := waitHealthy(client, cfg.URL, 10*time.Second); err != nil {
		return err
	}

	var mu sync.Mutex
	res := &loadgenResult{}
	counts := make(map[string]int64) // (target, query identity, epoch) -> first observed count
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			for i := 0; time.Now().Before(deadline); i++ {
				qt := qts[(c+i)%len(qts)]
				if cfg.CensusFrac > 0 && crng.Float64() < cfg.CensusFrac {
					k := 3 + (c+i)%2
					start := time.Now()
					subgraphs, epoch, hit, err := issueCensus(client, qt.base, k)
					lat := float64(time.Since(start)) / float64(time.Millisecond)
					mu.Lock()
					res.requests++
					if err != nil {
						res.errors++
					} else {
						res.latencies = append(res.latencies, lat)
						res.censuses++
						if hit {
							res.cacheHits++
						}
						if subgraphs >= 0 { // truncated censuses carry lower bounds
							id := fmt.Sprintf("%s/census/k=%d@e%d", qt.name, k, epoch)
							if prev, ok := counts[id]; ok && prev != subgraphs {
								if res.countMismatch == "" {
									res.countMismatch = fmt.Sprintf("%s: %d subgraphs then %d", id, prev, subgraphs)
								}
							} else {
								counts[id] = subgraphs
							}
						}
					}
					mu.Unlock()
					continue
				}
				if qt.explosive != "" && crng.Float64() < cfg.ExplosiveFrac {
					start := time.Now()
					_, _, _, shed, err := issueQuery(client, qt.base, qt.explosive, "hom", false, false)
					lat := float64(time.Since(start)) / float64(time.Millisecond)
					mu.Lock()
					res.requests++
					res.explosives++
					if err != nil {
						res.errors++
					} else {
						res.latencies = append(res.latencies, lat)
						if shed {
							res.sheds++
						}
					}
					mu.Unlock()
					continue
				}
				pi := crng.Intn(len(qt.texts))
				sem := semantics[(c+i)%len(semantics)]
				stream := crng.Intn(16) == 0
				withMappings := !stream && crng.Intn(8) == 0
				start := time.Now()
				matches, epoch, hit, shed, err := issueQuery(client, qt.base, qt.texts[pi], sem, withMappings, stream)
				lat := float64(time.Since(start)) / float64(time.Millisecond)
				mu.Lock()
				res.requests++
				if err != nil {
					res.errors++
				} else {
					res.latencies = append(res.latencies, lat)
					if hit {
						res.cacheHits++
					}
					if shed {
						res.sheds++
					}
					if stream {
						res.streams++
					}
					if matches >= 0 { // truncated replies carry no exact count
						id := fmt.Sprintf("%s/%d/%s@e%d", qt.name, pi, sem, epoch)
						if prev, ok := counts[id]; ok && prev != matches {
							if res.countMismatch == "" {
								res.countMismatch = fmt.Sprintf("query %s: count %d then %d", id, prev, matches)
							}
						} else {
							counts[id] = matches
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	if updateGraph != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runUpdater(client, cfg, updateGraph, deadline, &mu, res)
		}()
	}
	wg.Wait()

	var stats service.Stats
	var rstats service.RouterStats
	var statsErr error
	// Token release on streaming queries trails the HTTP response by a
	// hair; give the server a few polls to report an idle pool before
	// asserting zero worker pinning.
	for attempt := 0; ; attempt++ {
		rstats, statsErr = fetchRouterStats(client, cfg.URL)
		stats = mergeRouterStats(rstats, cfg.Targets)
		if statsErr != nil || stats.TokensInUse == 0 || attempt >= 20 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	report(cfg, res, stats)
	if statsErr == nil {
		for _, ti := range rstats.Targets {
			fmt.Printf("loadgen: server: target %-12s epoch %d, %d nodes, %d edges, index hot %v\n",
				ti.Name, ti.Epoch, ti.Nodes, ti.Edges, ti.IndexHot)
		}
	}

	switch {
	case res.countMismatch != "":
		return fmt.Errorf("inconsistent counts: %s", res.countMismatch)
	case len(res.latencies) == 0:
		return fmt.Errorf("no successful requests against %s", cfg.URL)
	case statsErr != nil:
		return fmt.Errorf("stats: %v", statsErr)
	case len(stats.Session.Plans.Buckets) == 0:
		return fmt.Errorf("server reports an empty plan histogram")
	case stats.TokensInUse != 0:
		return fmt.Errorf("server still pins %d worker tokens after drain", stats.TokensInUse)
	case cfg.ExplosiveFrac > 0 && res.sheds == 0 && stats.Deprioritized == 0:
		return fmt.Errorf("explosive mix (%d probes) produced no sheds and no deprioritizations — cost model not engaging", res.explosives)
	}
	if cfg.UpdateTarget != "" {
		ust := rstats.PerTarget[cfg.UpdateTarget]
		switch {
		case res.updates == 0:
			return fmt.Errorf("update client applied no batches against %s", cfg.UpdateTarget)
		case ust.Updates == 0 || ust.Epoch == 0:
			return fmt.Errorf("server reports no updates on %s (updates=%d epoch=%d)", cfg.UpdateTarget, ust.Updates, ust.Epoch)
		}
	}
	return nil
}

// patternPool extracts n connected patterns from g and serializes each
// once through the shared table. Sizes 3–6 keep single queries fast
// enough that a 10 s run sees hundreds of them.
func patternPool(rng *rand.Rand, g *parsge.Graph, n int, table *graphio.LabelTable) ([]string, error) {
	texts := make([]string, 0, n)
	for len(texts) < n {
		gp := testutil.ExtractPattern(rng, g, 3+rng.Intn(4))
		if gp.NumNodes() == 0 {
			continue
		}
		var buf bytes.Buffer
		if err := graphio.Write(&buf, fmt.Sprintf("lg-%d", len(texts)), gp, table); err != nil {
			return nil, err
		}
		texts = append(texts, buf.String())
	}
	return texts, nil
}

// explosivePattern builds the star probe for one target: the max-degree
// vertex with up to 12 of its distinct neighbors, arcs copied verbatim
// (labels and directions included) so the pattern is guaranteed
// satisfiable. Under homomorphism every leaf independently ranges over
// the center candidate's whole neighborhood, so the match count scales
// like sum over centers of degree^leaves — combinatorial explosion with
// large, healthy-looking domains. Exactly the query shape the cost
// model exists to shed.
func explosivePattern(g *parsge.Graph, table *graphio.LabelTable) (string, error) {
	center := int32(0)
	for v := int32(1); v < int32(g.NumNodes()); v++ {
		if g.Degree(v) > g.Degree(center) {
			center = v
		}
	}
	const maxLeaves = 12
	b := parsge.NewBuilder(1+maxLeaves, maxLeaves)
	b.AddNode(g.NodeLabel(center))
	taken := map[int32]bool{center: true}
	leaves := 0
	addLeaf := func(w int32, lab parsge.Label, out bool) {
		if leaves >= maxLeaves || taken[w] {
			return
		}
		taken[w] = true
		leaf := b.AddNode(g.NodeLabel(w))
		if out {
			b.AddEdge(0, leaf, lab)
		} else {
			b.AddEdge(leaf, 0, lab)
		}
		leaves++
	}
	outs, outLabs := g.OutNeighbors(center), g.OutEdgeLabels(center)
	for k, w := range outs {
		addLeaf(w, outLabs[k], true)
	}
	ins, inLabs := g.InNeighbors(center), g.InEdgeLabels(center)
	for k, w := range ins {
		addLeaf(w, inLabs[k], false)
	}
	gp, err := b.Build()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := graphio.Write(&buf, "lg-explosive", gp, table); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// runUpdater trickles small edge-update batches at the update target
// until the deadline: it alternates adding a random unlabeled arc and
// removing one it added earlier, so the graph oscillates around its base
// instead of drifting unboundedly while epochs keep advancing.
func runUpdater(client *http.Client, cfg loadgenConfig, g *parsge.Graph, deadline time.Time, mu *sync.Mutex, res *loadgenResult) {
	type arc struct{ from, to int32 }
	urng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	n := int32(g.NumNodes())
	base := cfg.URL + "/targets/" + cfg.UpdateTarget
	var added []arc
	for time.Now().Before(deadline) {
		var ups []map[string]any
		if len(added) > 0 && urng.Intn(2) == 0 {
			j := urng.Intn(len(added))
			e := added[j]
			added = append(added[:j], added[j+1:]...)
			ups = append(ups, map[string]any{"from": e.from, "to": e.to, "remove": true})
		} else {
			e := arc{urng.Int31n(n), urng.Int31n(n)}
			added = append(added, e)
			ups = append(ups, map[string]any{"from": e.from, "to": e.to})
		}
		start := time.Now()
		epoch, err := issueUpdate(client, base, ups)
		lat := float64(time.Since(start)) / float64(time.Millisecond)
		mu.Lock()
		res.requests++
		if err != nil {
			res.errors++
		} else {
			res.latencies = append(res.latencies, lat)
			res.updates++
			res.lastEpoch = epoch
		}
		mu.Unlock()
		time.Sleep(25 * time.Millisecond)
	}
}

func waitHealthy(client *http.Client, url string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v: %v", url, patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// issueQuery posts one query and returns the match count, the epoch the
// reply executed against, whether it was a cache hit, and whether the
// server shed it as predicted-explosive (HTTP 429 — an expected outcome
// under the cost model, not an error; the count is -1 and excluded from
// the consistency check). Streams are drained line by line to their
// terminal record.
func issueQuery(client *http.Client, base, pattern, sem string, mappings, stream bool) (int64, uint64, bool, bool, error) {
	body, _ := json.Marshal(map[string]any{
		"pattern":    pattern,
		"semantics":  sem,
		"mappings":   mappings,
		"stream":     stream,
		"timeout_ms": 30000,
	})
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return -1, 0, false, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false, false, fmt.Errorf("status %s", resp.Status)
	}
	if stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<24)
		var streamed int64
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var rec struct {
				Mapping   []int32 `json:"mapping"`
				Done      bool    `json:"done"`
				Matches   int64   `json:"matches"`
				Epoch     uint64  `json:"epoch"`
				Truncated bool    `json:"truncated"`
				Error     string  `json:"error"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return 0, 0, false, false, err
			}
			if rec.Done {
				if rec.Error != "" {
					return 0, 0, false, false, fmt.Errorf("stream error: %s", rec.Error)
				}
				if rec.Truncated {
					// A truncated stream has a lower-bound count; do not
					// feed it to the consistency check.
					return -1, rec.Epoch, false, false, nil
				}
				if rec.Matches != streamed {
					return 0, 0, false, false, fmt.Errorf("stream delivered %d mappings, terminal says %d", streamed, rec.Matches)
				}
				return rec.Matches, rec.Epoch, false, false, sc.Err()
			}
			streamed++
		}
		return 0, 0, false, false, fmt.Errorf("stream ended without terminal record: %v", sc.Err())
	}
	var rec struct {
		Matches   int64  `json:"matches"`
		Epoch     uint64 `json:"epoch"`
		Truncated bool   `json:"truncated"`
		CacheHit  bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return 0, 0, false, false, err
	}
	if rec.Truncated {
		return -1, rec.Epoch, rec.CacheHit, false, nil
	}
	return rec.Matches, rec.Epoch, rec.CacheHit, false, nil
}

// issueCensus posts one census request and returns the subgraph total
// (-1 when truncated), the epoch it executed against, and whether it was
// a cache hit. top=1 keeps the reply small — totals are reported
// regardless of classes shown.
func issueCensus(client *http.Client, base string, k int) (int64, uint64, bool, error) {
	body, _ := json.Marshal(map[string]any{
		"k":          k,
		"top":        1,
		"timeout_ms": 30000,
	})
	resp, err := client.Post(base+"/census", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false, fmt.Errorf("census status %s", resp.Status)
	}
	var rec struct {
		Subgraphs int64  `json:"subgraphs"`
		Epoch     uint64 `json:"epoch"`
		Truncated bool   `json:"truncated"`
		CacheHit  bool   `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return 0, 0, false, err
	}
	if rec.Truncated {
		return -1, rec.Epoch, rec.CacheHit, nil
	}
	return rec.Subgraphs, rec.Epoch, rec.CacheHit, nil
}

// issueUpdate posts one edge-update batch and returns the resulting
// epoch.
func issueUpdate(client *http.Client, base string, ups []map[string]any) (uint64, error) {
	body, _ := json.Marshal(map[string]any{"updates": ups})
	resp, err := client.Post(base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("update status %s", resp.Status)
	}
	var rec struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return 0, err
	}
	return rec.Epoch, nil
}

// fetchRouterStats decodes the server's /stats document.
func fetchRouterStats(client *http.Client, url string) (service.RouterStats, error) {
	var st service.RouterStats
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// mergeRouterStats folds the queried targets' per-target stats into one
// aggregate view for the shared report: counters sum, plan-histogram
// buckets concatenate (labeled by target), admission counters come from
// the router's shared view once.
func mergeRouterStats(rs service.RouterStats, targets []string) service.Stats {
	var out service.Stats
	for _, name := range targets {
		st, ok := rs.PerTarget[name]
		if !ok {
			continue
		}
		out.Queries += st.Queries
		out.Shared += st.Shared
		out.Sequential += st.Sequential
		out.Parallel += st.Parallel
		out.Census += st.Census
		out.CensusCacheHits += st.CensusCacheHits
		out.CensusCacheMisses += st.CensusCacheMisses
		out.Updates += st.Updates
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.ShedExplosive += st.ShedExplosive
		out.Deprioritized += st.Deprioritized
		out.MispredictSmall += st.MispredictSmall
		out.MispredictLarge += st.MispredictLarge
		out.EstimateHits += st.EstimateHits
		out.EstimateMisses += st.EstimateMisses
		out.Session.Plans.Planned += st.Session.Plans.Planned
		out.Session.Plans.NoPlan += st.Session.Plans.NoPlan
		for _, b := range st.Session.Plans.Buckets {
			b.Plan = name + ":" + b.Plan
			out.Session.Plans.Buckets = append(out.Session.Plans.Buckets, b)
		}
	}
	out.TokensInUse = rs.TokensInUse
	out.Queued = rs.Queued
	out.Granted = rs.Granted
	out.Shed = rs.Shed
	out.QueueTimeouts = rs.QueueTimeouts
	out.TotalQueueWait = rs.TotalQueueWait
	return out
}

func report(cfg loadgenConfig, res *loadgenResult, stats service.Stats) {
	ok := len(res.latencies)
	qps := float64(ok) / cfg.Duration.Seconds()
	fmt.Printf("loadgen: %d requests (%d ok, %d errors, %d streamed, %d censuses) in %v from %d clients\n",
		res.requests, ok, res.errors, res.streams, res.censuses, cfg.Duration, cfg.Clients)
	fmt.Printf("loadgen: throughput %.1f q/s, cache hits %d (%.1f%%)\n",
		qps, res.cacheHits, 100*float64(res.cacheHits)/max(1, float64(ok)))
	if res.updates > 0 {
		fmt.Printf("loadgen: %d update batches applied to %s (final epoch %d)\n",
			res.updates, cfg.UpdateTarget, res.lastEpoch)
	}
	if ok > 0 {
		sort.Float64s(res.latencies)
		pct := func(p float64) float64 { return res.latencies[min(ok-1, int(p*float64(ok)))] }
		fmt.Printf("loadgen: latency ms p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			pct(0.50), pct(0.95), pct(0.99), res.latencies[ok-1])
	}
	if res.explosives > 0 || res.sheds > 0 {
		fmt.Printf("loadgen: %d explosive probes issued, %d requests shed with 429\n",
			res.explosives, res.sheds)
	}
	fmt.Printf("loadgen: server: %d queries, %d singleflight-shared, %d shed, %d queue timeouts, %d/%d seq/par runs\n",
		stats.Queries, stats.Shared, stats.Shed, stats.QueueTimeouts, stats.Sequential, stats.Parallel)
	if stats.ShedExplosive > 0 || stats.Deprioritized > 0 || stats.MispredictSmall+stats.MispredictLarge > 0 {
		fmt.Printf("loadgen: server: %d shed explosive, %d deprioritized, %d/%d mispredicted small/large, %d/%d estimate hits/misses\n",
			stats.ShedExplosive, stats.Deprioritized, stats.MispredictSmall, stats.MispredictLarge,
			stats.EstimateHits, stats.EstimateMisses)
	}
	if stats.Census > 0 {
		fmt.Printf("loadgen: server: %d censuses (%d/%d census-cache hits/misses)\n",
			stats.Census, stats.CensusCacheHits, stats.CensusCacheMisses)
	}
	fmt.Printf("loadgen: plan histogram (%d executed, %d no-plan):\n", stats.Session.Plans.Planned, stats.Session.Plans.NoPlan)
	for _, b := range stats.Session.Plans.Buckets {
		fmt.Printf("loadgen:   %-32s %6d queries  unary %8v  ac %8v  inducedAC %8v\n",
			b.Plan, b.Count, b.UnaryTime.Round(time.Microsecond), b.ACTime.Round(time.Microsecond), b.InducedACTime.Round(time.Microsecond))
	}
}
