package bitset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
	if s.First() != -1 {
		t.Fatalf("First on empty = %d, want -1", s.First())
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Count() != 0 || s.Next(0) != -1 {
		t.Fatal("zero-capacity set should behave as empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearTest(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestSetAllRespectsCapacity(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128, 129} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, got)
		}
	}
}

func TestClearAll(t *testing.T) {
	s := New(100)
	s.SetAll()
	s.ClearAll()
	if !s.Empty() {
		t.Fatal("set not empty after ClearAll")
	}
}

func TestNextIteration(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 191, 192, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
		got = append(got, v)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Next(-5) != 3 {
		t.Errorf("Next(-5) = %d, want 3", s.Next(-5))
	}
	if s.Next(300) != -1 {
		t.Errorf("Next(300) = %d, want -1", s.Next(300))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(64)
	for i := 0; i < 64; i += 2 {
		s.Set(i)
	}
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("visited %d bits, want 5", n)
	}
}

func TestMembers(t *testing.T) {
	s := New(70)
	s.Set(2)
	s.Set(69)
	m := s.Members(nil)
	if len(m) != 2 || m[0] != 2 || m[1] != 69 {
		t.Fatalf("Members = %v", m)
	}
}

func TestBooleanOps(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(1)
	a.Set(100)
	a.Set(129)
	b.Set(100)
	b.Set(64)

	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Test(100) {
		t.Errorf("And wrong: %v", and)
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Errorf("Or wrong: %v", or)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != 2 || diff.Test(100) {
		t.Errorf("AndNot wrong: %v", diff)
	}
}

func TestSubsetEqual(t *testing.T) {
	a, b := New(80), New(80)
	a.Set(5)
	b.Set(5)
	b.Set(70)
	if !a.Subset(b) {
		t.Error("a should be subset of b")
	}
	if b.Subset(a) {
		t.Error("b should not be subset of a")
	}
	if a.Equal(b) {
		t.Error("a and b should differ")
	}
	a.Set(70)
	if !a.Equal(b) {
		t.Error("a and b should now be equal")
	}
	if a.Equal(New(81)) {
		t.Error("different capacities should not be Equal")
	}
}

func TestCopyClone(t *testing.T) {
	a := New(64)
	a.Set(10)
	c := a.Clone()
	c.Set(11)
	if a.Test(11) {
		t.Error("Clone aliases the original")
	}
	b := New(64)
	b.Copy(a)
	if !b.Equal(a) {
		t.Error("Copy did not reproduce contents")
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched capacity did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestString(t *testing.T) {
	s := New(10)
	s.Set(1)
	s.Set(5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
}

// randomSet builds a set of capacity n from a seed, for property tests.
func randomSet(n int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	// complement(a OR b) == complement(a) AND complement(b)
	f := func(seedA, seedB int64) bool {
		const n = 257
		a, b := randomSet(n, seedA), randomSet(n, seedB)
		or := a.Clone()
		or.Or(b)
		notOr := New(n)
		notOr.SetAll()
		notOr.AndNot(or)

		notA := New(n)
		notA.SetAll()
		notA.AndNot(a)
		notB := New(n)
		notB.SetAll()
		notB.AndNot(b)
		notA.And(notB)
		return notOr.Equal(notA)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesIteration(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSet(191, seed)
		n := 0
		s.ForEach(func(int) bool { n++; return true })
		return n == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndIsIntersection(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 200
		a, b := randomSet(n, seedA), randomSet(n, seedB)
		got := a.Clone()
		got.And(b)
		for i := 0; i < n; i++ {
			if got.Test(i) != (a.Test(i) && b.Test(i)) {
				return false
			}
		}
		return got.Subset(a) && got.Subset(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNextVisitsExactlyMembers(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSet(130, seed)
		seen := make(map[int]bool)
		for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
			if seen[v] || !s.Test(v) {
				return false
			}
			seen[v] = true
		}
		return len(seen) == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetAndCount(b *testing.B) {
	s := randomSet(4096, 42)
	o := randomSet(4096, 43)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := s.Clone()
		t.And(o)
		_ = t.Count()
	}
}

func BenchmarkNextIteration(b *testing.B) {
	s := randomSet(4096, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		for v := s.Next(0); v >= 0; v = s.Next(v + 1) {
			n++
		}
	}
}

// TestSetRange pins the word-boundary cases: within one word, spanning
// words, aligned and unaligned endpoints, and clamping.
func TestSetRange(t *testing.T) {
	cases := []struct {
		n, lo, hi int
		want      []int
	}{
		{10, 2, 5, []int{2, 3, 4}},
		{64, 0, 64, nil}, // filled below
		{130, 60, 70, []int{60, 61, 62, 63, 64, 65, 66, 67, 68, 69}},
		{130, 63, 64, []int{63}},
		{130, 64, 65, []int{64}},
		{130, 128, 130, []int{128, 129}},
		{10, 5, 5, nil},           // empty range
		{10, 7, 3, nil},           // inverted range
		{10, -5, 2, []int{0, 1}},  // clamped low
		{10, 8, 100, []int{8, 9}}, // clamped high
	}
	full := make([]int, 64)
	for i := range full {
		full[i] = i
	}
	cases[1].want = full
	for _, tc := range cases {
		s := New(tc.n)
		s.SetRange(tc.lo, tc.hi)
		got := s.Members(nil)
		if len(got) != len(tc.want) {
			t.Fatalf("SetRange(%d,%d) on n=%d: got %v, want %v", tc.lo, tc.hi, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SetRange(%d,%d) on n=%d: got %v, want %v", tc.lo, tc.hi, tc.n, got, tc.want)
			}
		}
	}
}

// TestQuickSetRangeMatchesLoop: SetRange must equal the bit-at-a-time
// loop for arbitrary ranges, without touching bits outside [lo, hi).
func TestQuickSetRangeMatchesLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		fast, slow := New(n), New(n)
		// Pre-populate identically so SetRange proves it only adds bits.
		for i := 0; i < n/4; i++ {
			b := rng.Intn(n)
			fast.Set(b)
			slow.Set(b)
		}
		lo, hi := rng.Intn(n+1), rng.Intn(n+1)
		fast.SetRange(lo, hi)
		for i := lo; i < hi && i < n; i++ {
			if i >= 0 {
				slow.Set(i)
			}
		}
		return fast.Equal(slow)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCensusWalkerOps exercises the exact op sequence the census
// walker's hot path runs — Copy, AndNot, Or on a prefix-seeded mask —
// against a naive set model.
func TestQuickCensusWalkerOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		adj, seen := New(n), New(n)
		model := make(map[int]bool)
		root := rng.Intn(n)
		seen.SetRange(0, root+1)
		for i := 0; i < n/3; i++ {
			adj.Set(rng.Intn(n))
		}
		// ext = adj \ seen, then seen |= adj: the walker's root setup.
		ext := New(n)
		ext.Copy(adj)
		ext.AndNot(seen)
		seen.Or(adj)
		for i := 0; i < n; i++ {
			model[i] = adj.Test(i) && i > root
		}
		for i := 0; i < n; i++ {
			if ext.Test(i) != model[i] {
				return false
			}
			if seen.Test(i) != (i <= root || adj.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPopIterate mirrors the walker's ext-loop idiom: iterate with
// Next while clearing the current bit — every member must be visited
// exactly once and the set must end empty.
func TestPopIterate(t *testing.T) {
	s := New(200)
	want := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, b := range want {
		s.Set(b)
	}
	var got []int
	for u := s.First(); u >= 0; u = s.Next(u + 1) {
		s.Clear(u)
		got = append(got, u)
	}
	if len(got) != len(want) {
		t.Fatalf("pop-iterate visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop-iterate visited %v, want %v", got, want)
		}
	}
	if !s.Empty() {
		t.Fatal("set not empty after pop-iterate")
	}
}

// TestForEachAnd pins the intersection walk on word-boundary bits (63,
// 64, 127) and a capacity that is not a multiple of 64: members of
// both sets in ascending order, nothing from one side only.
func TestForEachAnd(t *testing.T) {
	a, b := New(130), New(130)
	for _, i := range []int{0, 5, 63, 64, 100, 127, 128, 129} {
		a.Set(i)
	}
	for _, i := range []int{5, 6, 63, 64, 101, 127, 129} {
		b.Set(i)
	}
	want := []int{5, 63, 64, 127, 129}
	var got []int
	a.ForEachAnd(b, func(i int) bool {
		got = append(got, i)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ForEachAnd visited %v, want %v", got, want)
	}
	for _, empty := range []*Set{New(130), New(0)} {
		full := New(empty.Len())
		full.SetAll()
		empty.ForEachAnd(full, func(i int) bool {
			t.Fatalf("ForEachAnd over an empty set (len %d) visited %d", empty.Len(), i)
			return true
		})
	}
}

func TestForEachAndEarlyStop(t *testing.T) {
	a, b := New(200), New(200)
	a.SetAll()
	for _, i := range []int{1, 63, 64, 127, 199} {
		b.Set(i)
	}
	var got []int
	a.ForEachAnd(b, func(i int) bool {
		got = append(got, i)
		return i != 64
	})
	if fmt.Sprint(got) != fmt.Sprint([]int{1, 63, 64}) {
		t.Fatalf("ForEachAnd stopped after %v, want [1 63 64]", got)
	}
}

// TestCountAfter pins the strict-upper-bound count at word boundaries
// and on a capacity that is not a multiple of 64.
func TestCountAfter(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
	}
	for i, want := range map[int]int{
		-1: 5, 0: 4, 1: 4, 62: 4, 63: 3, 64: 2, 65: 2,
		126: 2, 127: 1, 128: 1, 129: 0, 130: 0, 500: 0,
	} {
		if got := s.CountAfter(i); got != want {
			t.Errorf("CountAfter(%d) = %d, want %d", i, got, want)
		}
	}
	if got := New(0).CountAfter(0); got != 0 {
		t.Errorf("CountAfter on a zero-capacity set = %d, want 0", got)
	}
	if got := New(130).CountAfter(-1); got != 0 {
		t.Errorf("CountAfter on an empty set = %d, want 0", got)
	}
}

// TestQuickForEachAndCountAfter holds both primitives to the bit-at-a-
// time model on random sets: ForEachAnd visits exactly a ∩ b in
// ascending order, and CountAfter(i) counts the members above i.
func TestQuickForEachAndCountAfter(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		n := 1 + int(uint64(seedA)%300)
		a, b := randomSet(n, seedA), randomSet(n, seedB)
		var got []int
		a.ForEachAnd(b, func(i int) bool {
			got = append(got, i)
			return true
		})
		var want []int
		for i := 0; i < n; i++ {
			if a.Test(i) && b.Test(i) {
				want = append(want, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return false
		}
		for i := -1; i <= n; i++ {
			c := 0
			for j := i + 1; j < n; j++ {
				if a.Test(j) {
					c++
				}
			}
			if a.CountAfter(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachAndMismatchedCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForEachAnd with mismatched capacity did not panic")
		}
	}()
	New(64).ForEachAnd(New(65), func(int) bool { return true })
}

func TestNewBatch(t *testing.T) {
	sets := NewBatch(4, 130)
	if len(sets) != 4 {
		t.Fatalf("len = %d, want 4", len(sets))
	}
	for i := range sets {
		if sets[i].Len() != 130 || !sets[i].Empty() {
			t.Fatalf("set %d: len %d, empty %v", i, sets[i].Len(), sets[i].Empty())
		}
	}
	// Sets in one batch never share words.
	sets[1].SetAll()
	if !sets[0].Empty() || !sets[2].Empty() || sets[1].Count() != 130 {
		t.Fatalf("batch sets overlap: %v %d %v", sets[0].Empty(), sets[1].Count(), sets[2].Empty())
	}
	if got := NewBatch(0, 10); len(got) != 0 {
		t.Fatalf("empty batch has %d sets", len(got))
	}
}

func TestQuickAndNotCount(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		const n = 203
		a, b := randomSet(n, seedA), randomSet(n, seedB)
		want := a.Clone()
		want.AndNot(b)
		got := a.Clone()
		removed := got.AndNotCount(b)
		return got.Equal(want) && removed == a.Count()-want.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAndUnion: AndUnion intersects with a ∪ b ∪ {keep}, with
// either operand absent, and returns the members kept.
func TestQuickAndUnion(t *testing.T) {
	f := func(seedS, seedA, seedB int64, keepRaw uint8, mask uint8) bool {
		const n = 131
		s, a, b := randomSet(n, seedS), randomSet(n, seedA), randomSet(n, seedB)
		keep := int(keepRaw)%(n+64) - 64 // sometimes negative: no keep member
		switch mask % 3 {
		case 1:
			a = nil
		case 2:
			b = nil
		}
		got := s.Clone()
		kept := got.AndUnion(a, b, keep)
		for i := 0; i < n; i++ {
			in := (a != nil && a.Test(i)) || (b != nil && b.Test(i)) || i == keep
			if got.Test(i) != (s.Test(i) && in) {
				return false
			}
		}
		return kept == got.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
