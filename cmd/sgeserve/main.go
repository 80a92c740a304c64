// Command sgeserve serves subgraph-enumeration queries over HTTP: the
// parsge library wrapped in the internal/service layer — result cache,
// admission control, plan observability — behind a small JSON API.
//
//	sgeserve -target data/PPIS32-targets.gff -listen :8642
//	sgeserve -collection PPIS32 -scale 0.05 -listen :8642
//
// Every graph section of -target (or every collection target) is hosted
// as a named target of one router sharing the worker budget. Sections
// are named by their GFF names ("t<i>" when unnamed or duplicate),
// collection targets "t<i>".
//
// Endpoints:
//
//	POST /targets/{name}/query   {"pattern": "<GFF section>", "semantics": "induced",
//	                              "mappings": true, "stream": false, ...}
//	POST /targets/{name}/census  {"k": 4, "top": 32}
//	POST /targets/{name}/update  {"updates": [{"from": 0, "to": 1}, ...]}
//	GET  /healthz                liveness (503 once draining)
//	GET  /stats                  every target with its mutation epoch, its
//	                             serving counters and its plan histogram
//
// The update endpoint applies batched edge mutations
// (parsge.Target.ApplyUpdates) with epoch-tagged cache invalidation.
//
// On SIGTERM/SIGINT the server drains gracefully: health flips to 503,
// new queries are refused, in-flight queries (streams included) get
// -drain-timeout to finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"parsge"
	"parsge/internal/datasets"
	"parsge/internal/graphio"
	"parsge/internal/service"
)

func main() {
	var (
		listen       = flag.String("listen", ":8642", "listen address")
		targetFile   = flag.String("target", "", "target graph file (GFF text format; every section is served as a named target)")
		collection   = flag.String("collection", "", "generate a synthetic collection's targets instead of reading -target: PPIS32, GRAEMLIN32 or PDBSv1")
		scale        = flag.Float64("scale", 0.05, "collection scale (with -collection)")
		seed         = flag.Int64("seed", 20170525, "collection seed (with -collection)")
		workers      = flag.Int("workers", 0, "total worker budget (0 = GOMAXPROCS)")
		parallel     = flag.Int("parallel", 0, "workers granted to a large query (0 = half the budget)")
		maxQueue     = flag.Int("queue", 0, "admission queue bound before shedding (0 = 8x budget)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max admission queue wait")
		cacheBudget  = flag.Int64("cache", 1<<20, "result cache budget in match-count units (-1 disables)")
		defTimeout   = flag.Duration("default-timeout", 30*time.Second, "timeout applied to queries that set none (0 = unbounded)")
		maxTimeout   = flag.Duration("max-timeout", 0, "clamp every query/census timeout to this server budget (0 = no clamp)")
		smallBudget  = flag.Duration("small-budget", 0, "predicted cost under which a query runs sequentially (0 = 25ms)")
		explosiveBud = flag.Duration("explosive-budget", 0, "predicted cost at which a query is shed/deprioritized (0 = max-timeout or 30s; negative disables)")
		explosivePol = flag.String("explosive-policy", "shed", "what happens to predicted-explosive queries: shed (HTTP 429) or deprioritize (low-priority queue)")
		smallLogDom  = flag.Float64("small-logdomain", 0, "domain score below which a history-less query runs sequentially (0 = 22)")
		explLogDom   = flag.Float64("explosive-logdomain", 0, "domain score at which a query is shed regardless of plan history (0 = 44)")
		semantics    = flag.String("default-semantics", "", "semantics for queries that choose none: iso, induced or hom (empty = iso)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight queries on shutdown")
		maxPattern   = flag.Int("max-pattern-nodes", 64, "reject patterns larger than this")
		maxHot       = flag.Int("max-hot-indexes", 0, "max targets holding their label index at once (LRU eviction; 0 = unbounded)")
	)
	flag.Parse()

	var policy service.ExplosivePolicy
	switch *explosivePol {
	case "shed":
		policy = service.ExplosiveShed
	case "deprioritize":
		policy = service.ExplosiveDeprioritize
	default:
		exitOn(fmt.Errorf("unknown -explosive-policy %q (want shed or deprioritize)", *explosivePol))
	}

	table := graphio.NewLabelTable()

	defSem := parsge.SemanticsUnset
	if *semantics != "" {
		switch *semantics {
		case "iso":
			defSem = parsge.SubgraphIso
		case "induced":
			defSem = parsge.InducedIso
		case "hom":
			defSem = parsge.Homomorphism
		default:
			exitOn(fmt.Errorf("unknown -default-semantics %q", *semantics))
		}
	}

	named, err := loadTargets(*targetFile, *collection, *scale, *seed, table)
	exitOn(err)
	router := service.NewRouter(service.RouterConfig{
		Workers:            *workers,
		ParallelWorkers:    *parallel,
		MaxQueue:           *maxQueue,
		QueueTimeout:       *queueTimeout,
		CacheMaxMatches:    *cacheBudget,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		SmallBudget:        *smallBudget,
		ExplosiveBudget:    *explosiveBud,
		SmallLogDomain:     *smallLogDom,
		ExplosiveLogDomain: *explLogDom,
		ExplosivePolicy:    policy,
		MaxHotIndexes:      *maxHot,
	})
	for _, nt := range named {
		exitOn(router.AddTarget(nt.name, nt.g, parsge.TargetOptions{DefaultSemantics: defSem}))
	}
	handler := service.NewRouterServer(router, table)
	banner := fmt.Sprintf("%d targets", len(named))
	for _, nt := range named {
		banner += fmt.Sprintf(" %s(%dn/%de)", nt.name, nt.g.NumNodes(), nt.g.NumEdges())
	}
	handler.MaxPatternNodes = *maxPattern
	srv := &http.Server{
		Addr:    *listen,
		Handler: handler,
		// Transport-level untrusted-client defenses: a slowloris peer
		// must not pin a connection goroutine forever. WriteTimeout
		// stays 0 — streaming responses are legitimately long-lived;
		// each stream bounds its own writes by its query's deadline.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	log.Printf("sgeserve: serving %s on %s", banner, *listen)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		exitOn(err)
	case sig := <-sigc:
		log.Printf("sgeserve: %v, draining (grace %v)", sig, *drainTimeout)
	}

	// Graceful drain: stop advertising health, refuse new queries, give
	// in-flight requests the grace period, then cut stragglers loose.
	handler.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("sgeserve: drain incomplete: %v", err)
		srv.Close()
	}
	if err := router.Close(ctx); err != nil {
		log.Printf("sgeserve: router drain incomplete: %v", err)
	}
	rst := router.Stats()
	var queries, hits, updates, shedExpl, mispred int64
	for _, ts := range rst.PerTarget {
		queries += ts.Queries
		hits += ts.CacheHits
		updates += ts.Updates
		shedExpl += ts.ShedExplosive
		mispred += ts.MispredictSmall + ts.MispredictLarge
	}
	log.Printf("sgeserve: shut down after %d queries (%d cache hits, %d updates, %d shed, %d shed explosive, %d mispredicted)",
		queries, hits, updates, rst.Shed, shedExpl, mispred)
}

// namedGraph is one router target read from disk or generated.
type namedGraph struct {
	name string
	g    *parsge.Graph
}

// loadTargets loads every graph section of file (or every collection
// target) for serving. Names are the GFF section names — "t<i>" when a
// section is unnamed or a duplicate — or "t0".."tN" for collections.
func loadTargets(file, collection string, scale float64, seed int64, table *graphio.LabelTable) ([]namedGraph, error) {
	switch {
	case file != "" && collection != "":
		return nil, fmt.Errorf("set -target or -collection, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		graphs, err := parsge.ReadGraphs(f, table)
		if err != nil {
			return nil, err
		}
		if len(graphs) == 0 {
			return nil, fmt.Errorf("%s has no graph sections", file)
		}
		out := make([]namedGraph, len(graphs))
		seen := make(map[string]bool, len(graphs))
		for i, ng := range graphs {
			name := ng.Name
			if name == "" || seen[name] {
				name = fmt.Sprintf("t%d", i)
			}
			seen[name] = true
			out[i] = namedGraph{name: name, g: ng.Graph}
		}
		return out, nil
	case collection != "":
		c, err := datasets.ByName(collection, datasets.Config{Scale: scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		// Collection targets carry programmatic numeric labels that never
		// went through a LabelTable. Pre-intern their decimal spellings in
		// identity order ("1" → 1, "2" → 2, ...) so client patterns using
		// decimal labels (the LabelTable.Spell convention) intern to the
		// ids the targets actually carry.
		maxLabel := 0
		for _, g := range c.Targets {
			if l := int(g.MaxNodeLabel()); l > maxLabel {
				maxLabel = l
			}
		}
		for l := 1; l <= maxLabel; l++ {
			table.Intern(strconv.Itoa(l))
		}
		out := make([]namedGraph, len(c.Targets))
		for i, g := range c.Targets {
			out[i] = namedGraph{name: fmt.Sprintf("t%d", i), g: g}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("one of -target or -collection is required")
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sgeserve:", err)
		os.Exit(1)
	}
}
