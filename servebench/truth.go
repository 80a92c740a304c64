package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parsge"
	"parsge/internal/service"
)

// Ground truth is computed once per workload collection, outside every
// timed phase, with engines other than the one the service runs: VF2
// counts (and mapping digests) on twin sessions, and a sequential census
// on each graph state a writer target passes through. A pattern whose
// reference enumeration needs more than the workload's States cap is
// left out; the exception is a pattern the service refuses on its domain
// bound alone, a verdict that does not depend on timing, which stays in
// as an expected refusal.

// truthVersion changes whenever the meaning of a stored truth file does.
const truthVersion = 1

// refTimeout only guarantees termination of the reference runs: at the
// cap's scale they finish in tens of milliseconds, so a run still
// going at refTimeout is far above the cap. A run that times out below
// the cap is an error, never a guess.
const refTimeout = 500 * time.Millisecond

// expect is the reference outcome of one query identity.
type expect struct {
	// Refused marks a pattern above the cap that the service refuses on
	// its domain bound alone: the expected reply is HTTP 429.
	Refused bool   `json:"refused,omitempty"`
	Count   int64  `json:"count"`
	Digest  string `json:"digest,omitempty"` // multiset hash of the mappings
	States  int64  `json:"states"`           // reference-engine States
}

// ident is one query identity: a pattern on a target, at one graph
// state, under one semantics.
type ident struct {
	Target  int    `json:"t"`
	Pattern int    `json:"p"`
	Sem     string `json:"sem"`
	State   int    `json:"state,omitempty"` // 1 = writer target after its forward batch
	Role    string `json:"role"`            // cold, pool or requery
	Expect  expect `json:"expect"`
}

// Ident roles.
const (
	roleCold    = "cold"
	rolePool    = "pool"
	roleRequery = "requery"
)

type censusTruth struct {
	Target    int    `json:"t"`
	State     int    `json:"state"`
	Subgraphs int64  `json:"subgraphs"`
	Classes   int    `json:"classes"`
	Digest    string `json:"digest"`
}

type updateTruth struct {
	Target  int `json:"t"`
	State   int `json:"state"` // the state the batch leaves the target in
	Applied int `json:"applied"`
	NoOps   int `json:"noops"`
	Touched int `json:"touched"`
}

type truth struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	Inputs   string `json:"inputs"` // inputs fingerprint
	StateCap int64  `json:"state_cap"`
	// Candidates were considered; LeftOut of them exceeded the cap and
	// were not refused on the domain bound; Refusals stayed in as
	// expected refusals.
	Candidates int           `json:"candidates"`
	LeftOut    int           `json:"left_out"`
	Refusals   int           `json:"expected_refusals"`
	Idents     []ident       `json:"idents"`
	Census     []censusTruth `json:"census,omitempty"`
	Updates    []updateTruth `json:"updates,omitempty"`
}

func (tr *truth) census(target, state int) *censusTruth {
	for i := range tr.Census {
		if c := &tr.Census[i]; c.Target == target && c.State == state {
			return c
		}
	}
	return nil
}

func (tr *truth) update(target, state int) *updateTruth {
	for i := range tr.Updates {
		if u := &tr.Updates[i]; u.Target == target && u.State == state {
			return u
		}
	}
	return nil
}

func truthFile(dir string, w *workload) string {
	return filepath.Join(dir, w.name+".json")
}

// loadTruth returns the ground truth for in: the committed file when its
// fingerprint matches, else the checkout's cached copy, else a fresh
// computation written to the cache. The second result names the source.
func loadTruth(root string, in *inputs) (*truth, string, error) {
	fp := in.fingerprint()
	committed := truthFile(filepath.Join("servebench", "truth"), in.w)
	cached := truthFile(filepath.Join(".bench_build", "truth"), in.w)
	for _, path := range []string{committed, cached} {
		b, err := os.ReadFile(filepath.Join(root, path))
		if err != nil {
			continue
		}
		var tr truth
		if json.Unmarshal(b, &tr) == nil && tr.Version == truthVersion && tr.Inputs == fp {
			return &tr, path, nil
		}
	}
	tr, err := computeTruth(in)
	if err != nil {
		return nil, "", err
	}
	if err := writeTruth(filepath.Join(root, cached), tr); err != nil {
		return nil, "", err
	}
	return tr, "computed", nil
}

func writeTruth(path string, tr *truth) error {
	b, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// candidates lists the query identities a workload draws its ops from,
// before the cap. Identities that would share a cache entry (same
// target, state, semantics and canonical pattern) are dropped after the
// first, so a cold op is never answered from the cache.
func candidates(in *inputs) []ident {
	w := in.w
	small := func(i int) bool {
		return in.patterns[i].WantEdges <= 8 && in.patterns[i].Graph.NumNodes() <= maxPatternNodes
	}
	isWriter := make(map[int]bool)
	for _, t := range in.writers {
		isWriter[t] = true
	}
	var out []ident
	add := func(p int, state int, role string, sems ...string) {
		for _, s := range sems {
			out = append(out, ident{Target: in.patterns[p].TargetIndex, Pattern: p, Sem: s, State: state, Role: role})
		}
	}
	switch {
	case w.writerTargets > 0: // sparse-mutate
		pool := 0
		for p := range in.patterns {
			if !small(p) {
				continue
			}
			switch {
			case isWriter[in.patterns[p].TargetIndex]:
				add(p, 0, roleRequery, semIso, semInduced, semHom)
				add(p, 1, roleRequery, semIso, semInduced, semHom)
			case pool < w.poolPatterns:
				pool++
				add(p, 0, rolePool, semIso, semInduced, semHom)
			default:
				add(p, 0, roleCold, semIso, semInduced, semHom)
			}
		}
	case w.poolPatterns > 0: // sparse-hot
		for p := range in.patterns {
			if small(p) && len(out) < 3*w.poolPatterns {
				add(p, 0, rolePool, semIso, semInduced, semHom)
			}
		}
	default: // dense-cold
		for p := range in.patterns {
			if in.patterns[p].Graph.NumNodes() <= maxPatternNodes {
				add(p, 0, roleCold, semIso, semInduced)
			}
		}
	}
	type key struct {
		target, state int
		canon         uint64
		sem           string
	}
	seen := make(map[key]bool)
	kept := out[:0]
	for _, id := range out {
		k := key{id.Target, id.State, parsge.CanonicalHash(in.patterns[id.Pattern].Graph), id.Sem}
		if !seen[k] {
			seen[k] = true
			kept = append(kept, id)
		}
	}
	return kept
}

// computeTruth runs the reference engines for every candidate (two at a
// time: the host has two CPUs), probes the service's domain-bound
// verdict for those above the cap, and takes the census and update
// outcomes of every writer-target state.
func computeTruth(in *inputs) (*truth, error) {
	ctx := context.Background()
	w := in.w
	tr := &truth{Version: truthVersion, Workload: w.name, Inputs: in.fingerprint(), StateCap: stateCap}

	// Twin sessions per (target, state); state 1 exists for writers only.
	sessions := make(map[[2]int]*parsge.Target)
	for t, g := range in.targets {
		s, err := parsge.NewTarget(g, parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		sessions[[2]int{t, 0}] = s
	}
	for i, t := range in.writers {
		s1, err := parsge.NewTarget(in.targets[t], parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		fwd, err := s1.ApplyUpdates(ctx, in.forward[i])
		if err != nil {
			return nil, err
		}
		back, err := parsge.NewTarget(s1.Graph(), parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		undo, err := back.ApplyUpdates(ctx, in.undo[i])
		if err != nil {
			return nil, err
		}
		if !sameEdges(back.Graph(), in.targets[t]) {
			return nil, fmt.Errorf("target %d: undo batch does not restore the graph", t)
		}
		sessions[[2]int{t, 1}] = s1
		tr.Updates = append(tr.Updates,
			updateTruth{Target: t, State: 1, Applied: fwd.Applied, NoOps: fwd.NoOps, Touched: fwd.TouchedVertices},
			updateTruth{Target: t, State: 0, Applied: undo.Applied, NoOps: undo.NoOps, Touched: undo.TouchedVertices})
		for state := 0; state <= 1; state++ {
			res, err := sessions[[2]int{t, state}].Census(ctx, parsge.CensusOptions{K: censusK, Workers: 1})
			if err != nil {
				return nil, err
			}
			if res.TimedOut {
				return nil, fmt.Errorf("target %d: reference census truncated", t)
			}
			var d uint64
			for _, c := range res.Classes {
				d += classHash(c.Hash, c.Count)
			}
			tr.Census = append(tr.Census, censusTruth{Target: t, State: state, Subgraphs: res.Subgraphs,
				Classes: len(res.Classes), Digest: hex64(d)})
		}
	}

	cands := candidates(in)
	tr.Candidates = len(cands)
	inCap := make([]bool, len(cands))
	errs := make([]error, len(cands))
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cands) {
					return
				}
				id := &cands[i]
				id.Expect, inCap[i], errs[i] = reference(ctx, sessions[[2]int{id.Target, id.State}],
					in.patterns[id.Pattern].Graph, id.Sem)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Probe the service's domain-bound verdict on a fresh router (no plan
	// history) for every candidate above the cap.
	probes := make(map[int]*service.Router)
	defer func() {
		for _, r := range probes {
			r.Close(ctx)
		}
	}()
	for i := range cands {
		id := &cands[i]
		if inCap[i] {
			tr.Idents = append(tr.Idents, *id)
			continue
		}
		r := probes[id.State]
		if r == nil {
			var err error
			if r, err = probeRouter(in, id.State); err != nil {
				return nil, err
			}
			probes[id.State] = r
		}
		refused, err := boundRefusal(ctx, r, in.names[id.Target], in.patterns[id.Pattern].Graph, id.Sem)
		if err != nil {
			return nil, err
		}
		if !refused {
			tr.LeftOut++
			continue
		}
		tr.Refusals++
		// The States a run reached before refTimeout depend on the host,
		// so an expected refusal keeps none.
		id.Expect = expect{Refused: true}
		tr.Idents = append(tr.Idents, *id)
	}
	return tr, nil
}

// reference counts a query with VF2 on a twin session, hashing every
// mapping. The second result reports whether the run stayed within the
// States cap.
func reference(ctx context.Context, tgt *parsge.Target, pattern *parsge.Graph, sem string) (expect, bool, error) {
	var digest uint64
	res, err := tgt.Enumerate(ctx, pattern, parsge.Options{
		Algorithm: parsge.VF2,
		Semantics: semantics(sem),
		Limit:     stateCap + 1,
		Timeout:   refTimeout,
		Visit: func(m []int32) bool {
			digest += mappingHash(m)
			return true
		},
	})
	if err != nil {
		return expect{}, false, err
	}
	e := expect{Count: res.Matches, Digest: hex64(digest), States: res.States}
	within := res.States <= stateCap && res.Matches <= stateCap
	if res.TimedOut && within {
		return e, false, fmt.Errorf("reference run stopped after %d states, below the cap of %d: the host is too slow for the cap", res.States, stateCap)
	}
	return e, within && !res.TimedOut, nil
}

// probeRouter builds a router configured as the served one, with every
// writer target moved to the given state.
func probeRouter(in *inputs, state int) (*service.Router, error) {
	st, err := buildStack(in, nil)
	if err != nil {
		return nil, err
	}
	if state == 1 {
		for i, t := range in.writers {
			if _, err := st.router.Update(context.Background(), in.names[t], in.forward[i]); err != nil {
				return nil, err
			}
		}
	}
	return st.router, nil
}

// boundRefusal reports whether the router sheds the query on its domain
// bound alone (an ExplosiveError without a history-backed prediction).
// The probe carries a 1 ms timeout, so an admitted query costs nothing.
func boundRefusal(ctx context.Context, r *service.Router, target string, pattern *parsge.Graph, sem string) (bool, error) {
	_, err := r.Count(ctx, target, service.Query{Pattern: pattern, Options: parsge.Options{
		Algorithm: parsge.Auto, Semantics: semantics(sem), Timeout: time.Millisecond,
	}})
	var ex *service.ExplosiveError
	switch {
	case errors.As(err, &ex):
		return ex.Predicted == 0, nil
	case err != nil:
		return false, err
	}
	return false, nil
}

func sameEdges(a, b *parsge.Graph) bool {
	count := make(map[parsge.Edge]int)
	for _, e := range a.Edges() {
		count[e]++
	}
	for _, e := range b.Edges() {
		count[e]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return a.NumNodes() == b.NumNodes()
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mappingHash hashes one embedding; summing it over a result set gives
// an order-independent digest of the set.
func mappingHash(m []int32) uint64 {
	h := uint64(len(m))
	for _, v := range m {
		h = mix64(h ^ uint64(uint32(v)))
	}
	return mix64(h + 0x9e3779b97f4a7c15)
}

// classHash hashes one census class (canonical hash and count).
func classHash(hash uint64, count int64) uint64 {
	return mix64(hash ^ mix64(uint64(count)))
}

func hex64(x uint64) string { return fmt.Sprintf("%016x", x) }
