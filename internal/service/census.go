package service

import (
	"context"
	"errors"
	"time"

	"parsge"
)

// This file is the census request path of a targetService: the same three
// production concerns the query path has — caching, admission control,
// observability — applied to the motif-census workload.
//
//   - Admission: a census is always "large". It enumerates every
//     connected k-subgraph of the whole target, fanning out over every
//     vertex, so it runs one walker per token of a parallel grant. The
//     grant is capped one short of the machine's budget,
//     min(ParallelWorkers, Workers−1) tokens (at least one): a census
//     runs for many milliseconds, and with every token held each small
//     query beside it would wait the whole run out.
//   - Caching: a complete census at one K is valid for the graph version
//     it ran on, so an epochStore keyed by K replaces the LRU — an entry
//     of a superseded epoch is evicted on sight — and per-(K, epoch)
//     singleflight collapses concurrent identical requests onto one run
//     without ever latching a post-update request onto a pre-update
//     leader.
//   - Observability: runs are recorded by Target.Census into the plan
//     histogram under "census:k=<K>", and the service counts census
//     requests next to its query counters.

// CensusRequest is one client census request.
type CensusRequest struct {
	// K is the subgraph size, in [parsge.MinCensusK, parsge.MaxCensusK].
	K int
	// Timeout bounds the run (0 falls back to RouterConfig.DefaultTimeout).
	Timeout time.Duration
}

// CensusReply reports one served census.
type CensusReply struct {
	// Result is the census outcome. For a cache hit it is the result of
	// the run that populated the entry (its Duration describes that
	// run, not this request).
	Result parsge.CensusResult
	// CacheHit reports the reply was served from the census cache;
	// Shared that it was computed once by a concurrent identical
	// request and shared.
	CacheHit, Shared bool
	// QueueWait is the time spent in the admission queue.
	QueueWait time.Duration
}

// censusID identifies one census computation: the subgraph size at one
// target mutation epoch. Keying cache and singleflight by the pair is
// what makes updates safe — a request after ApplyUpdates uses a fresh
// ID and cannot see (or join) pre-update state. Constructions must set
// the epoch explicitly (sgelint: epochkey).
//
//sgelint:epochkey
type censusID struct {
	k     int
	epoch uint64
}

// Census serves a motif-census request through the same loop as the
// query path: cache, then singleflight, then an admission-controlled
// run on the parallel pool.
func (s *targetService) Census(ctx context.Context, req CensusRequest) (CensusReply, error) {
	if err := s.begin(); err != nil {
		return CensusReply{}, err
	}
	defer s.wg.Done()
	if req.K < parsge.MinCensusK || req.K > parsge.MaxCensusK {
		return CensusReply{}, errors.New("service: census K out of range")
	}
	s.count.queries.Add(1)
	s.count.census.Add(1)

	var reply CensusReply
	res, src, err := s.censusRuns.do(ctx,
		func() censusID { return censusID{k: req.K, epoch: s.tgt.Epoch()} },
		func(id censusID, count bool) (*parsge.CensusResult, bool) {
			return s.censusCache.get(id.k, id.epoch, count)
		},
		func() (*parsge.CensusResult, bool, error) {
			r, res, err := s.runCensusLeader(ctx, req)
			reply = r
			return res, res != nil, err
		})
	switch {
	case err != nil:
		return CensusReply{}, err
	case src == led:
		return reply, nil
	case src == joined:
		s.count.shared.Add(1)
	}
	return CensusReply{Result: *res, CacheHit: src == hit, Shared: src == joined}, nil
}

// runCensusLeader acquires the census grant and runs the census for
// real with one walker per token; a complete (un-truncated) result is
// cached under the (K, epoch) its run executed against.
func (s *targetService) runCensusLeader(ctx context.Context, req CensusRequest) (CensusReply, *parsge.CensusResult, error) {
	need := int64(max(1, min(s.cfg.ParallelWorkers, s.cfg.Workers-1)))
	waited, err := s.adm.acquire(ctx, s.name, need, s.cfg.QueueTimeout, false)
	if err != nil {
		return CensusReply{}, nil, err
	}
	defer s.adm.release(need)
	s.count.parallel.Add(1)

	res, err := s.tgt.Census(ctx, parsge.CensusOptions{
		K:       req.K,
		Workers: int(need),
		Timeout: s.cfg.timeout(req.Timeout),
	})
	if err != nil {
		return CensusReply{}, nil, err
	}
	reply := CensusReply{Result: res, QueueWait: waited}
	if res.TimedOut {
		// Truncated: counts are lower bounds — correct for this caller,
		// not a result identical requests may reuse.
		return reply, nil, nil
	}
	s.censusCache.put(res.K, &res, res.Epoch)
	return reply, &res, nil
}
