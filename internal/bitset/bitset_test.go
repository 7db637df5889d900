package bitset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d, want 0", got)
	}
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 {
		t.Fatalf("zero-capacity set misbehaves: count=%d len=%d", s.Count(), s.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddHasRemove(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("Has(64) = true after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count() = %d after duplicate Add, want 1", got)
	}
}

func TestRemoveAbsentIsNoop(t *testing.T) {
	s := New(10)
	s.Remove(5)
	if !s.Empty() {
		t.Fatal("Remove on empty set should be a no-op")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Has(%d) should panic", i)
				}
			}()
			s.Has(i)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	s := FromIndices(20, 1, 2, 3)
	c := s.Clone()
	c.Add(10)
	if s.Has(10) {
		t.Fatal("mutating clone changed original")
	}
	if !c.Has(2) {
		t.Fatal("clone lost member")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromIndices(64, 5, 6)
	b := FromIndices(64, 60)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom should make sets equal")
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("sets with different capacities must not be Equal")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	b := FromIndices(10, 3, 4)

	u := a.Clone()
	u.UnionWith(b)
	if got, want := u.Members(), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("union = %v, want %v", got, want)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got, want := i.Members(), []int{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("intersection = %v, want %v", got, want)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got, want := d.Members(), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("difference = %v, want %v", got, want)
	}

	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(FromIndices(10, 7, 8)) {
		t.Error("a should not intersect {7,8}")
	}
	if !u.ContainsAll(a) {
		t.Error("union should contain a")
	}
	if a.ContainsAll(u) {
		t.Error("a should not contain the union")
	}
}

func TestSymmetricDiffCount(t *testing.T) {
	a := FromIndices(200, 0, 64, 128, 199)
	b := FromIndices(200, 0, 65, 128)
	// a△b = {64, 199, 65}
	if got := a.SymmetricDiffCount(b); got != 3 {
		t.Fatalf("SymmetricDiffCount = %d, want 3", got)
	}
	if got := a.SymmetricDiffCount(a); got != 0 {
		t.Fatalf("self symmetric diff = %d, want 0", got)
	}
}

func TestMembersAndForEach(t *testing.T) {
	want := []int{2, 63, 64, 100}
	s := FromIndices(128, want...)
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return true
	})
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("ForEach visited %v, want %v", visited, want)
	}
	// Early stop.
	visited = visited[:0]
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 {
		t.Fatalf("ForEach early stop visited %d, want 2", len(visited))
	}
}

func TestKeyDistinguishesSets(t *testing.T) {
	a := FromIndices(100, 1, 50)
	b := FromIndices(100, 1, 51)
	if a.Key() == b.Key() {
		t.Fatal("different sets share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("equal sets have different keys")
	}
}

func TestString(t *testing.T) {
	s := FromIndices(10, 1, 4, 7)
	if got, want := s.String(), "{1, 4, 7}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := New(3).String(), "{}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// randomSet builds a pseudo-random set plus its reference map model.
func randomSet(rng *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := make(map[int]bool)
	for i := 0; i < n/2; i++ {
		v := rng.Intn(n)
		s.Add(v)
		m[v] = true
	}
	return s, m
}

// TestQuickAgainstMapModel cross-checks the bitset against a map-backed
// model under random operation sequences.
func TestQuickAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		m := make(map[int]bool)
		for op := 0; op < 200; op++ {
			v := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(v)
				m[v] = true
			case 1:
				s.Remove(v)
				delete(m, v)
			case 2:
				if s.Has(v) != m[v] {
					t.Fatalf("trial %d: Has(%d) = %v, model says %v", trial, v, s.Has(v), m[v])
				}
			}
		}
		if s.Count() != len(m) {
			t.Fatalf("trial %d: Count() = %d, model has %d", trial, s.Count(), len(m))
		}
		for _, v := range s.Members() {
			if !m[v] {
				t.Fatalf("trial %d: member %d not in model", trial, v)
			}
		}
	}
}

func TestQuickSymmetricDiffMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(256)
		a, am := randomSet(r, n)
		b, bm := randomSet(r, n)
		want := 0
		for v := range am {
			if !bm[v] {
				want++
			}
		}
		for v := range bm {
			if !am[v] {
				want++
			}
		}
		return a.SymmetricDiffCount(b) == want && a.SymmetricDiffCount(b) == b.SymmetricDiffCount(a)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionIntersectionDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		// |a ∪ b| + |a ∩ b| == |a| + |b|
		u := a.Clone()
		u.UnionWith(b)
		i := a.Clone()
		i.IntersectWith(b)
		return u.Count()+i.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(256)
		a, am := randomSet(r, n)
		b, bm := randomSet(r, n)
		and, andNot := 0, 0
		for v := range am {
			if bm[v] {
				and++
			} else {
				andNot++
			}
		}
		if a.AndCount(b) != and || b.AndCount(a) != and {
			return false
		}
		if a.AndNotCount(b) != andNot {
			return false
		}
		// Word-slice forms agree with the Set forms.
		return AndCountWords(a.Words(), b.Words()) == and &&
			AndNotCountWords(a.Words(), b.Words()) == andNot &&
			PopcountWords(a.Words()) == a.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAndCountWordsLengthMismatch(t *testing.T) {
	a := []uint64{^uint64(0), ^uint64(0)}
	b := []uint64{0xF0}
	// Missing words of the shorter operand count as zero for AND...
	if got := AndCountWords(a, b); got != 4 {
		t.Errorf("AndCountWords = %d, want 4", got)
	}
	if got := AndCountWords(b, a); got != 4 {
		t.Errorf("AndCountWords reversed = %d, want 4", got)
	}
	// ...and words of a beyond len(b) survive AND NOT in full.
	if got := AndNotCountWords(a, b); got != 60+64 {
		t.Errorf("AndNotCountWords = %d, want 124", got)
	}
}

func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seen := make(map[uint64]*Set)
	for i := 0; i < 500; i++ {
		s, _ := randomSet(rng, 200)
		fp := s.Fingerprint()
		if fp != s.Clone().Fingerprint() {
			t.Fatal("fingerprint not deterministic under Clone")
		}
		if prev, ok := seen[fp]; ok && !prev.Equal(s) {
			// Collisions are legal but should be vanishingly rare on
			// random 200-bit sets; treat one as a regression.
			t.Fatalf("fingerprint collision between %v and %v", prev, s)
		}
		seen[fp] = s
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 256} {
		s := New(n)
		s.SetAll()
		if got := s.Count(); got != n {
			t.Fatalf("SetAll on n=%d: Count = %d", n, got)
		}
		// No bits beyond the universe: clearing every member empties it.
		for i := 0; i < n; i++ {
			s.Remove(i)
		}
		if !s.Empty() {
			t.Fatalf("SetAll on n=%d left stray tail bits", n)
		}
	}
}

func TestNthMember(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		s, _ := randomSet(rng, n)
		members := s.Members()
		for k, want := range members {
			if got := s.NthMember(k); got != want {
				t.Fatalf("NthMember(%d) = %d, want %d", k, got, want)
			}
		}
		if got := s.NthMember(len(members)); got != -1 {
			t.Fatalf("NthMember past the end = %d, want -1", got)
		}
		if got := s.NthMember(-1); got != -1 {
			t.Fatalf("NthMember(-1) = %d, want -1", got)
		}
	}
}

func TestForEachAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		a, _ := randomSet(rng, n)
		b, _ := randomSet(rng, n)
		want := a.Clone()
		want.IntersectWith(b)
		var got []int
		a.ForEachAnd(b, func(i int) bool {
			got = append(got, i)
			return true
		})
		wantMembers := want.Members()
		if len(got) != len(wantMembers) {
			t.Fatalf("ForEachAnd visited %d members, want %d", len(got), len(wantMembers))
		}
		for i := range got {
			if got[i] != wantMembers[i] {
				t.Fatalf("ForEachAnd order mismatch at %d: %d vs %d", i, got[i], wantMembers[i])
			}
		}
		// Early stop after the first member.
		calls := 0
		a.ForEachAnd(b, func(int) bool {
			calls++
			return false
		})
		if len(wantMembers) > 0 && calls != 1 {
			t.Fatalf("ForEachAnd ignored early stop: %d calls", calls)
		}
	}
}

// PopcountWords returns the total population count of a word slice.
func PopcountWords(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}
