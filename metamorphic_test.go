package parsge

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"parsge/internal/domain"
	"parsge/internal/testutil"
)

// The metamorphic battery of the adaptive pruning scheduler: enumeration
// counts are an invariant of the *problem*, not of the preprocessing
// plan, so every point of the schedule space — each filter toggled on
// and off, capped versus fixpoint arc consistency, Auto versus Fixed —
// must produce the count of the brute-force oracle. A schedule-dependent
// count is by definition an unsound filter or a broken wiring of the
// plan into an engine.

// schedulePoint is one point of the schedule space.
type schedulePoint struct {
	sched      domain.Schedule
	acPasses   int
	disableNLF bool
	disableIAC bool
}

// schedulePoints spans {Auto, Fixed} × {fixpoint, 1-pass} × each
// adaptive-controlled filter on/off.
func schedulePoints() []schedulePoint {
	var pts []schedulePoint
	for _, sched := range []domain.Schedule{domain.ScheduleAuto, domain.ScheduleFixed} {
		for _, ac := range []int{0, 1} {
			for _, noNLF := range []bool{false, true} {
				for _, noIAC := range []bool{false, true} {
					pts = append(pts, schedulePoint{sched, ac, noNLF, noIAC})
				}
			}
		}
	}
	return pts
}

func (p schedulePoint) String() string {
	return fmt.Sprintf("sched=%v/ac=%d/noNLF=%v/noIAC=%v",
		p.sched, p.acPasses, p.disableNLF, p.disableIAC)
}

// metamorphicInstances are the random instance shapes of the battery.
var metamorphicInstances = []struct {
	name string
	opts testutil.InstanceOptions
}{
	{"plain", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4}},
	{"labelRich", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 26, PatternNodes: 4, NodeLabels: 4, EdgeLabels: 3}},
	{"dense", testutil.InstanceOptions{TargetNodes: 7, TargetEdges: 30, PatternNodes: 4, NodeLabels: 2, Extract: true}},
	{"nasty", testutil.InstanceOptions{TargetNodes: 8, TargetEdges: 22, PatternNodes: 3, Nasty: true}},
}

// TestMetamorphicScheduleSpace sweeps the whole public schedule space —
// schedule × AC depth × filter toggles × engine —
// over random instances under all three semantics and holds every
// combination to testutil.BruteCountSem. Since every point is compared
// to the same oracle, this also proves Auto and Fixed agree everywhere.
func TestMetamorphicScheduleSpace(t *testing.T) {
	engines := []struct {
		name string
		opts Options
	}{
		{"RI-DS-SI-FC", Options{Algorithm: RIDSSIFC}},
		{"VF2", Options{Algorithm: VF2}},
		{"LAD", Options{Algorithm: LAD}},
	}
	pts := schedulePoints()
	const seedsPerKind = 6
	for _, k := range metamorphicInstances {
		for seed := int64(0); seed < seedsPerKind; seed++ {
			gp, gt := testutil.RandomInstance(seed+100, k.opts)
			tgt, err := NewTarget(gt, TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, sem := range allSemantics {
				want := testutil.BruteCountSem(gp, gt, sem)
				for _, pt := range pts {
					for _, eng := range engines {
						opts := eng.opts
						opts.Semantics = sem
						opts.filters = domain.Filters{
							Schedule:      pt.sched,
							ACPasses:      pt.acPasses,
							SkipNLF:       pt.disableNLF,
							SkipInducedAC: pt.disableIAC,
						}
						got, err := tgt.Count(context.Background(), gp, opts)
						if err != nil {
							t.Fatalf("%s/seed=%d %s %s under %v: %v",
								k.name, seed, eng.name, pt, sem, err)
						}
						if got != want {
							t.Errorf("%s/seed=%d %s %s under %v = %d, oracle = %d",
								k.name, seed, eng.name, pt, sem, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMetamorphicParallelSchedule covers the parallel engine (which
// inherits the plan through the shared ri.Prepare) on the Auto and
// Fixed endpoints of the schedule space.
func TestMetamorphicParallelSchedule(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 10, TargetEdges: 30, PatternNodes: 4, NodeLabels: 4, EdgeLabels: 3, Extract: seed%2 == 0,
		})
		for _, sem := range allSemantics {
			want := testutil.BruteCountSem(gp, gt, sem)
			tgt, err := NewTarget(gt, TargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []domain.Schedule{domain.ScheduleAuto, domain.ScheduleFixed} {
				got, err := tgt.Count(context.Background(), gp, Options{
					Algorithm: RIDSSIFC, Workers: 4, TaskGroupSize: 2,
					Semantics: sem, filters: domain.Filters{Schedule: sched},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("seed=%d sched=%v under %v: parallel = %d, oracle = %d",
						seed, sched, sem, got, want)
				}
			}
		}
	}
}

// TestMetamorphicPlanReported: every domain-preprocessing engine reports
// the resolved plan in Result.Plan, Fixed reports the full pipeline, and
// an explicit ACPasses cap survives both schedules. Plain RI reports no
// plan (it computes no domains).
func TestMetamorphicPlanReported(t *testing.T) {
	gp, gt := testutil.RandomInstance(3, testutil.InstanceOptions{
		TargetNodes: 10, TargetEdges: 30, PatternNodes: 4,
	})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, alg := range []Algorithm{RIDSSIFC, VF2, LAD} {
		res, err := tgt.Enumerate(ctx, gp, Options{Algorithm: alg, filters: domain.Filters{Schedule: domain.ScheduleFixed}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil {
			t.Fatalf("%v: Fixed run reported no plan", alg)
		}
		if !res.Plan.NLF || !res.Plan.AC || res.Plan.ACPasses != 0 {
			t.Errorf("%v: Fixed plan = %v, want full pipeline at fixpoint", alg, res.Plan)
		}
		res, err = tgt.Enumerate(ctx, gp, Options{Algorithm: alg, filters: domain.Filters{ACPasses: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil || !res.Plan.AC || res.Plan.ACPasses != 1 {
			t.Errorf("%v: explicit ACPasses=1 not honored under Auto: plan = %v", alg, res.Plan)
		}
		if res.Plan.DomainAfterUnary < res.Plan.DomainFinal {
			t.Errorf("%v: propagation grew domains: %d -> %d", alg, res.Plan.DomainAfterUnary, res.Plan.DomainFinal)
		}
	}
	res, err := tgt.Enumerate(ctx, gp, Options{Algorithm: RI})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Errorf("plain RI reported a plan: %v", res.Plan)
	}
}

// TestConcurrentAutoScheduleCancellation is the race/cancellation stress
// of the adaptive scheduler: many goroutines fire queries of mixed
// semantics, schedules and engines at one shared Target (hence one
// shared domain.Index and arena pool) while others cancel mid-
// enumeration. Run under -race (the CI test job does), this catches
// unsynchronized mutation of the shared index by the scheduler; counts
// of uncancelled runs must stay exact.
func TestConcurrentAutoScheduleCancellation(t *testing.T) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes: 14, TargetEdges: 60, PatternNodes: 4, NodeLabels: 2, Extract: true,
	})
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Semantics]int64, len(allSemantics))
	for _, sem := range allSemantics {
		want[sem] = testutil.BruteCountSem(gp, gt, sem)
	}

	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sem := allSemantics[(g+i)%len(allSemantics)]
				opts := Options{
					Algorithm: []Algorithm{RIDSSIFC, VF2, LAD, RIDSSIFC}[i%4],
					Semantics: sem,
					filters:   domain.Filters{Schedule: []domain.Schedule{domain.ScheduleAuto, domain.ScheduleFixed}[i%2]},
				}
				if i%4 == 3 {
					opts.Workers = 3 // exercise the parallel engine too
				}
				ctx := context.Background()
				cancelled := false
				if (g+i)%3 == 0 {
					// Cancel mid-enumeration (or before it starts).
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*50*time.Microsecond)
					defer cancel()
					cancelled = true
				}
				res, err := tgt.Enumerate(ctx, gp, opts)
				if err != nil {
					t.Errorf("g=%d i=%d: %v", g, i, err)
					return
				}
				if !res.TimedOut && res.Matches != want[sem] {
					t.Errorf("g=%d i=%d under %v: got %d, want %d", g, i, sem, res.Matches, want[sem])
					return
				}
				if cancelled && res.TimedOut && res.Matches > want[sem] {
					t.Errorf("g=%d i=%d under %v: cancelled run overcounted: %d > %d", g, i, sem, res.Matches, want[sem])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
