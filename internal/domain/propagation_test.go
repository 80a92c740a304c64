package domain

import (
	"fmt"
	"math/rand"
	"testing"

	"parsge/internal/bitset"
	"parsge/internal/datasets"
	"parsge/internal/graph"
)

// TestPropagationDifferential holds ComputeWithStats to a frozen copy of
// the pipeline it replaced (refComputeWithStats below): a unary filter
// without key masks or the self-loop set, and arc-consistency and
// induced sweeps that revise every pattern node on every pass. Both must
// leave identical domains and report the identical Plan, AfterUnary,
// AfterPass1, Final and LogDomainProduct — under every semantics, every
// filter configuration, with or without an Index, and under both
// kernels.
func TestPropagationDifferential(t *testing.T) {
	type instance struct {
		name   string
		gp, gt *graph.Graph
	}
	var instances []instance
	for seed := int64(0); seed < 40; seed++ {
		gp, gt, _ := randomInstance(seed)
		instances = append(instances, instance{fmt.Sprintf("random/%d", seed), gp, gt})
	}
	for seed := int64(0); seed < 20; seed++ {
		gp, gt := variantInstance(seed, true, 2)
		instances = append(instances, instance{fmt.Sprintf("loops/%d", seed), gp, gt})
		gp, gt = variantInstance(seed, seed%2 == 0, graph.MaxLabelRows+2)
		instances = append(instances, instance{fmt.Sprintf("labels/%d", seed), gp, gt})
	}
	for _, name := range []string{"PPIS32", "PDBSv1"} {
		coll, err := datasets.ByName(name, datasets.Config{Scale: 0.012, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range coll.Instances()[:8] {
			instances = append(instances, instance{fmt.Sprintf("%s/%d", name, inst.Index), inst.Pattern, inst.Target})
		}
	}
	configs := []struct {
		name string
		f    Filters
	}{
		{"auto", Filters{}},
		{"fixed", Filters{Schedule: ScheduleFixed}},
		{"ac1", Filters{Schedule: ScheduleFixed, ACPasses: 1}},
		{"ac2", Filters{Schedule: ScheduleFixed, ACPasses: 2}},
		{"ac3", Filters{Schedule: ScheduleFixed, ACPasses: 3}},
		{"skipNLF", Filters{Schedule: ScheduleFixed, SkipNLF: true}},
		{"skipInducedAC", Filters{Schedule: ScheduleFixed, SkipInducedAC: true}},
	}
	sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
	// Coverage: the battery must reach the paths the sweeps' change
	// stamps skip work on, or agreement proves little.
	var multiPass, escalated, inducedPruned, runs int
	// The set-at-a-time paths: runs whose unary filter took threshold
	// rows, and induced revisions a cached blocked set pruned. And the
	// signature merge against an index, which only an index without
	// threshold rows runs.
	var rowUnary, blockedPrunes, indexMerges int
	for _, in := range instances {
		indexes := []struct {
			name string
			ix   *Index
		}{{"exact", NewIndex(in.gt)}, {"none", nil}}
		for _, sem := range sems {
			for _, c := range configs {
				for _, ixc := range indexes {
					for _, k := range []Kernel{KernelBitset, KernelSlice} {
						f := c.f
						f.Kernel = k
						name := fmt.Sprintf("%s %v %s index=%s kernel=%v", in.name, sem, c.name, ixc.name, k)
						got, gst := f.Compute(in.gp, in.gt, ixc.ix, sem)
						opts := Options{ACPasses: f.ACPasses, SkipAC: f.SkipAC, SkipNLF: f.SkipNLF,
							SkipInducedAC: f.SkipInducedAC, Index: ixc.ix, Kernel: f.Kernel, Semantics: sem}
						if f.Schedule == ScheduleAuto {
							opts = AutoTune(opts, in.gp, in.gt)
						}
						want, wst := refComputeWithStats(in.gp, in.gt, opts)
						if gst.Plan != wst.Plan || gst.AfterUnary != wst.AfterUnary || gst.AfterPass1 != wst.AfterPass1 ||
							gst.Final != wst.Final || gst.LogDomainProduct != wst.LogDomainProduct {
							t.Fatalf("%s: plan %v unary %d pass1 %d final %d log %v, reference plan %v unary %d pass1 %d final %d log %v",
								name, gst.Plan, gst.AfterUnary, gst.AfterPass1, gst.Final, gst.LogDomainProduct,
								wst.Plan, wst.AfterUnary, wst.AfterPass1, wst.Final, wst.LogDomainProduct)
						}
						for vp := int32(0); vp < int32(in.gp.NumNodes()); vp++ {
							if !got.Of(vp).Equal(want.Of(vp)) {
								t.Fatalf("%s: node %d domain %v, reference %v", name, vp, got.Of(vp), want.Of(vp))
							}
						}
						runs++
						if gst.Final < gst.AfterPass1 {
							multiPass++
						}
						if gst.Plan.ACAdaptive && gst.Plan.ACPasses == 0 {
							escalated++
						}
						if gst.Plan.InducedAC && gst.Final < gst.AfterUnary {
							inducedPruned++
						}
						if gst.unaryRows {
							rowUnary++
						} else if ixc.ix != nil && gst.Plan.NLF {
							indexMerges++
						}
						blockedPrunes += gst.blockedPrunes
					}
				}
			}
		}
	}
	t.Logf("%d configurations: %d pruned after pass 1, %d escalated, %d induced runs that pruned", runs, multiPass, escalated, inducedPruned)
	if multiPass == 0 || escalated == 0 || inducedPruned == 0 {
		t.Fatalf("battery too weak: %d multi-pass, %d escalated, %d induced runs that pruned", multiPass, escalated, inducedPruned)
	}
	t.Logf("%d runs took threshold rows, %d merged signatures against an index, %d induced revisions pruned on a blocked set", rowUnary, indexMerges, blockedPrunes)
	if rowUnary == 0 || blockedPrunes == 0 {
		t.Fatalf("battery misses the set-at-a-time paths: %d threshold-row runs, %d blocked-set prunes", rowUnary, blockedPrunes)
	}
	if indexMerges == 0 {
		t.Fatal("battery misses the signature merge against an index: no target lacks threshold rows")
	}
}

// variantInstance draws a pattern from a random target like
// randomInstance, with the knobs that generator lacks: self-loops on
// about a third of the target nodes (kept by the pattern where its
// nodes' images carry them), and edgeLabels edge labels — more than
// graph.MaxLabelRows leaves the BitGraph without label rows. A third of
// the patterns gain one edge the target may lack, so domains also empty
// out and cascade.
func variantInstance(seed int64, loops bool, edgeLabels int) (gp, gt *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	nt := 10 + rng.Intn(30)
	bt := &graph.Builder{}
	for i := 0; i < nt; i++ {
		bt.AddNode(graph.Label(rng.Intn(3)))
	}
	for i := 0; i < nt*4; i++ {
		if u, v := int32(rng.Intn(nt)), int32(rng.Intn(nt)); u != v {
			bt.AddEdge(u, v, graph.Label(rng.Intn(edgeLabels)))
		}
	}
	if loops {
		for v := int32(0); v < int32(nt); v++ {
			if rng.Intn(3) == 0 {
				bt.AddEdge(v, v, graph.Label(rng.Intn(edgeLabels)))
			}
		}
	}
	gt = bt.MustBuild()
	np := 2 + rng.Intn(6)
	embed := rng.Perm(nt)[:np]
	bp := &graph.Builder{}
	for _, v := range embed {
		bp.AddNode(gt.NodeLabel(int32(v)))
	}
	for i, u := range embed {
		for j, w := range embed {
			if l, ok := gt.EdgeLabel(int32(u), int32(w)); ok && rng.Intn(3) != 0 {
				bp.AddEdge(int32(i), int32(j), l)
			}
		}
	}
	if rng.Intn(3) == 0 {
		bp.AddEdge(int32(rng.Intn(np)), int32(rng.Intn(np)), graph.Label(rng.Intn(edgeLabels)))
	}
	return bp.MustBuild(), gt
}

// The frozen reference: ComputeWithStats, arcConsistency and inducedPass
// as they were before key masks, the self-loop set and change-stamped
// sweeps (timings dropped). Do not optimize it — it is the oracle.

func refComputeWithStats(gp, gt *graph.Graph, opts Options) (*Domains, ComputeStats) {
	sem := opts.Semantics.Norm()
	np, nt := gp.NumNodes(), gt.NumNodes()
	d := &Domains{sets: make([]*bitset.Set, np), nt: nt}

	ix := opts.Index
	if ix != nil && ix.nt != nt {
		ix = nil // index built for a different target: ignore
	}
	hom := !sem.Injective()
	induced := sem.Induced()
	stats := ComputeStats{Plan: Plan{
		NLF:        !opts.SkipNLF,
		AC:         !opts.SkipAC,
		ACPasses:   opts.ACPasses,
		ACAdaptive: !opts.SkipAC && opts.ACAdaptive && opts.ACPasses > 0,
		InducedAC:  induced && !opts.SkipAC && !opts.SkipInducedAC,
	}}

	// Pattern-side unary state, computed once per pattern node: NLF
	// signatures and self-loop label sets.
	var psigOut, psigIn []nlfSig
	if !opts.SkipNLF {
		var buf []uint64
		psigOut = make([]nlfSig, np)
		psigIn = make([]nlfSig, np)
		for vp := int32(0); vp < int32(np); vp++ {
			buf = appendNLFKeys(buf[:0], gp, gp.OutNeighbors(vp), gp.OutEdgeLabels(vp))
			psigOut[vp] = buildNLFSig(buf)
			buf = appendNLFKeys(buf[:0], gp, gp.InNeighbors(vp), gp.InEdgeLabels(vp))
			psigIn[vp] = buildNLFSig(buf)
		}
	}
	selfLoops := patternSelfLoops(gp)

	// Without an Index, target signatures are built on the fly and
	// memoized per node: same-label pattern nodes share a candidate
	// bucket, so each candidate would otherwise be re-encoded once per
	// pattern node.
	var scratch []uint64
	var tout, tin []nlfSig
	var tbuilt []bool
	targetSigs := func(vt int32) (out, in nlfSig) {
		if tbuilt == nil {
			tout = make([]nlfSig, nt)
			tin = make([]nlfSig, nt)
			tbuilt = make([]bool, nt)
		}
		if !tbuilt[vt] {
			scratch = appendNLFKeys(scratch[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
			tout[vt] = buildNLFSig(scratch)
			scratch = appendNLFKeys(scratch[:0], gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
			tin[vt] = buildNLFSig(scratch)
			tbuilt[vt] = true
		}
		return tout[vt], tin[vt]
	}

	// Initial unary filter per pattern node: equivalent labels,
	// sufficient in/out degrees ("all nodes with in- and outdegree at
	// least that of v_p's, and with labels that match v_p's", §4.1, only
	// under the injective semantics), label-compatible self-loops (under
	// induced semantics also the absence of extra target self-loops),
	// and NLF domination. With a label Index only the matching bucket is
	// scanned; the label test is then implicit.
	for vp := int32(0); vp < int32(np); vp++ {
		s := bitset.New(nt)
		lab := gp.NodeLabel(vp)
		din, dout := gp.InDegree(vp), gp.OutDegree(vp)
		if !sem.DegreePruning() {
			din, dout = 0, 0
		}
		admit := func(vt int32) {
			if gt.InDegree(vt) < din || gt.OutDegree(vt) < dout {
				return
			}
			for _, l := range selfLoops[vp] {
				if !gt.HasEdgeLabeled(vt, vt, l) {
					return
				}
			}
			if induced && len(selfLoops[vp]) == 0 && gt.HasEdge(vt, vt) {
				return
			}
			if !opts.SkipNLF && (len(psigOut[vp].keys) > 0 || len(psigIn[vp].keys) > 0) {
				tout, tin := targetSigs(vt)
				if !tout.dominates(psigOut[vp], hom) || !tin.dominates(psigIn[vp], hom) {
					return
				}
			}
			s.Set(int(vt))
		}
		if ix != nil {
			for _, vt := range ix.Nodes(lab) {
				admit(vt)
			}
		} else {
			for vt := int32(0); vt < int32(nt); vt++ {
				if gt.NodeLabel(vt) == lab {
					admit(vt)
				}
			}
		}
		d.sets[vp] = s
	}

	stats.AfterUnary = d.TotalSize()

	// Resolve the kernel and materialize the BitGraph rows the
	// propagation passes (and, via stats.Rows, the engines) run on.
	// With an Index the rows are cached across queries; without one
	// they are built here only when arc consistency will actually use
	// them.
	var rows *graph.BitGraph
	if ResolveKernel(opts.Kernel, nt) == KernelBitset {
		if ix != nil {
			rows = ix.Rows(gt)
		} else if !opts.SkipAC {
			rows = graph.NewBitGraph(gt)
		}
	}
	stats.Rows = rows

	if !opts.SkipAC {
		refArcConsistency(d, gp, gt, rows, opts.ACPasses, stats.Plan.ACAdaptive, induced && !opts.SkipInducedAC, &stats)
	}
	stats.Final = d.TotalSize()
	if lp, empty := d.LogProduct(); !empty {
		stats.LogDomainProduct = lp
	}
	return d, stats
}

func refArcConsistency(d *Domains, gp, gt *graph.Graph, rows *graph.BitGraph, maxPasses int, adaptive, induced bool, st *ComputeStats) {
	np := gp.NumNodes()
	// Under the bitset kernel with per-label rows, the support test
	// "some labeled neighbor of v_t lies in D(w_p)" is one word-parallel
	// intersection against the (direction, label) row. The row slices
	// are hoisted per pattern node so the candidate loop does no map
	// lookups; a nil slice means the label has no target edge at all.
	labelRows := rows != nil && rows.HasLabelRows()
	var outRows, inRows [][]*bitset.Set
	for pass := 0; maxPasses == 0 || pass < maxPasses; pass++ {
		changed := false
		for vp := int32(0); vp < int32(np); vp++ {
			dom := d.sets[vp]
			if dom.Empty() {
				continue
			}
			outP := gp.OutNeighbors(vp)
			outL := gp.OutEdgeLabels(vp)
			inP := gp.InNeighbors(vp)
			inL := gp.InEdgeLabels(vp)
			if labelRows {
				outRows = outRows[:0]
				for _, l := range outL {
					outRows = append(outRows, rows.OutLab[l])
				}
				inRows = inRows[:0]
				for _, l := range inL {
					inRows = append(inRows, rows.InLab[l])
				}
			}

			var drop []int
			dom.ForEach(func(vti int) bool {
				vt := int32(vti)
				for i, wp := range outP {
					if wp == vp {
						continue // self-loops are a unary constraint
					}
					if labelRows {
						if r := outRows[i]; r == nil || !d.sets[wp].Intersects(r[vt]) {
							drop = append(drop, vti)
							return true
						}
						continue
					}
					if rows != nil && !rows.Out[vt].Intersects(d.sets[wp]) {
						// Direction-row prefilter: no out-neighbor of
						// v_t lies in the domain under any label.
						drop = append(drop, vti)
						return true
					}
					if !hasSupport(gt.OutNeighbors(vt), gt.OutEdgeLabels(vt), outL[i], d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
				}
				for i, wp := range inP {
					if wp == vp {
						continue
					}
					if labelRows {
						if r := inRows[i]; r == nil || !d.sets[wp].Intersects(r[vt]) {
							drop = append(drop, vti)
							return true
						}
						continue
					}
					if rows != nil && !rows.In[vt].Intersects(d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
					if !hasSupport(gt.InNeighbors(vt), gt.InEdgeLabels(vt), inL[i], d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
				}
				return true
			})
			for _, vti := range drop {
				dom.Clear(vti)
				changed = true
			}
		}
		if induced {
			if refInducedPass(d, gp, gt, rows) {
				changed = true
			}
		}
		if pass == 0 {
			st.AfterPass1 = d.TotalSize()
			if adaptive && changed && np > 0 &&
				float64(st.AfterPass1) >= acEscalateMeanDomain*float64(np) {
				// The one-pass prediction was wrong for this query:
				// the sweep is still pruning and the domains it left
				// behind are large, so further sweeps have real work.
				// Lift the cap and iterate to fixpoint.
				maxPasses = 0
				st.Plan.ACPasses = 0
			}
		}
		if !changed {
			return
		}
	}
}

func refInducedPass(d *Domains, gp, gt *graph.Graph, rows *graph.BitGraph) bool {
	np := gp.NumNodes()
	changed := false
	for vp := int32(0); vp < int32(np); vp++ {
		dom := d.sets[vp]
		if dom.Empty() {
			continue
		}
		for wp := int32(0); wp < int32(np); wp++ {
			if wp == vp {
				continue // the self pair is the unary self-loop filter
			}
			needOut := !gp.HasEdge(vp, wp) // pattern non-edge vp→wp
			needIn := !gp.HasEdge(wp, vp)  // pattern non-edge wp→vp
			if !needOut && !needIn {
				continue
			}
			domW := d.sets[wp]
			sizeW := domW.Count()
			var drop []int
			dom.ForEach(func(vti int) bool {
				vt := int32(vti)
				bound := 1 // v_t itself is never a valid image of w_p
				if needOut {
					bound += gt.OutDegree(vt)
				}
				if needIn {
					bound += gt.InDegree(vt)
				}
				if sizeW > bound {
					return true // pigeonhole: a non-adjacent support exists
				}
				if rows != nil {
					// Bitset kernel: "some w_t ∈ D(w_p) \ {v_t} avoids
					// v_t's out/in rows" is one word-parallel pass.
					var a, b *bitset.Set
					if needOut {
						a = rows.Out[vt]
					}
					if needIn {
						b = rows.In[vt]
					}
					if !domW.ExistsOutside(a, b, vti) {
						drop = append(drop, vti)
					}
					return true
				}
				supported := false
				domW.ForEach(func(wti int) bool {
					wt := int32(wti)
					if wt == vt {
						return true
					}
					if needOut && gt.HasEdge(vt, wt) {
						return true
					}
					if needIn && gt.HasEdge(wt, vt) {
						return true
					}
					supported = true
					return false
				})
				if !supported {
					drop = append(drop, vti)
				}
				return true
			})
			for _, vti := range drop {
				dom.Clear(vti)
				changed = true
			}
		}
	}
	return changed
}
