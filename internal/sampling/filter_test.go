package sampling

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/schema"
)

// keyOf renders an instance list as a sorted multiset-free key list for
// order-insensitive comparison.
func keysOf(instances []*bitset.Set) []string {
	keys := make([]string, len(instances))
	for i, inst := range instances {
		keys[i] = inst.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestPropertyFilterInstancesMatchesReenumeration is the correctness
// proof of the exact inference's incremental maintenance, checked on
// random networks: starting from the full enumeration, applying a random
// assertion sequence through FilterInstances yields — after every step —
// exactly the instance set a fresh EnumerateAll under the accumulated
// feedback produces. Approvals are pure filters; disapprovals surface
// the stripped survivors the re-enumeration finds.
func TestPropertyFilterInstancesMatchesReenumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 12; trial++ {
		e, _ := tinyNetwork(t, rng)
		n := e.Network().NumCandidates()
		instances, err := EnumerateAll(e, nil, nil, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		// Own the list: FilterInstances mutates it.
		list := make([]*bitset.Set, len(instances))
		for i, inst := range instances {
			list[i] = inst.Clone()
		}
		approved, disapproved := bitset.New(n), bitset.New(n)
		order := rng.Perm(n)
		for _, c := range order[:n/2+1] {
			approve := rng.Intn(2) == 0
			if approve {
				approved.Add(c)
			} else {
				disapproved.Add(c)
			}
			list = FilterInstances(list, c, approve, func(inst *bitset.Set) bool {
				return e.Maximal(inst, disapproved)
			})
			want, err := EnumerateAll(e, approved, disapproved, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			got, exp := keysOf(list), keysOf(want)
			if len(got) != len(exp) {
				t.Fatalf("trial %d after asserting %d (approve=%v): %d instances, re-enumeration has %d",
					trial, c, approve, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("trial %d after asserting %d (approve=%v): instance sets differ",
						trial, c, approve)
				}
			}
		}
	}
}

// TestPropertyFilterWithinComponentMatchesReenumeration is the
// component-restricted form of the property above, through the exact
// store: each component of a random network (some candidates retired
// through the engine) starts from its EnumerateWithin list in a
// component store, and after every random assertion — the disapprovals
// filtered with the member-scoped Engine.MaximalWithin probe — the store
// holds exactly the instances a fresh EnumerateWithin of the component
// under the accumulated feedback produces.
func TestPropertyFilterWithinComponentMatchesReenumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	disapprovals := 0
	for trial := 0; trial < 12; trial++ {
		e, _ := tinyNetwork(t, rng)
		net := e.Network()
		n := net.NumCandidates()
		if trial%2 == 1 {
			c := rng.Intn(n)
			if err := net.RetireCandidate(c); err != nil {
				t.Fatal(err)
			}
			e.Retire(c)
		}
		parts := e.Components()
		local := make([]int32, n)
		for k := 0; k < parts.NumComponents(); k++ {
			for j, c := range parts.Members(k) {
				local[c] = int32(j)
			}
		}
		for k := 0; k < parts.NumComponents(); k++ {
			members := parts.Members(k)
			within := bitset.FromIndices(n, members...)
			instances, err := EnumerateWithin(e, nil, nil, within, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := NewComponentStore(n, 4, members, local)
			for _, inst := range instances {
				st.Add(inst)
			}
			st.MarkComplete()
			approved, disapproved := bitset.New(n), bitset.New(n)
			for _, j := range rng.Perm(len(members)) {
				c := members[j]
				if net.Retired(c) {
					continue
				}
				approve := rng.Intn(3) == 0
				if approve {
					approved.Add(c)
				} else {
					disapproved.Add(c)
					disapprovals++
				}
				st.ApplyAssertionExact(c, approve, func(inst *bitset.Set) bool {
					return e.MaximalWithin(inst, disapproved, members)
				})
				want, err := EnumerateWithin(e, approved, disapproved, within, 0)
				if err != nil {
					t.Fatal(err)
				}
				var got []*bitset.Set
				st.ForEachInstance(func(inst *bitset.Set) bool {
					got = append(got, inst)
					return true
				})
				g, w := keysOf(got), keysOf(want)
				if len(g) != len(w) {
					t.Fatalf("trial %d component %d after asserting %d (approve=%v): %d instances, re-enumeration has %d",
						trial, k, c, approve, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("trial %d component %d after asserting %d (approve=%v): instance sets differ",
							trial, k, c, approve)
					}
				}
			}
		}
	}
	if disapprovals < 50 {
		t.Fatalf("only %d disapprovals exercised; the fixture is too small", disapprovals)
	}
}

// TestStoreApplyAssertionExactConsistency: the exact maintenance path
// must leave the store's columnar matrix, counts, and probabilities
// identical to a store rebuilt from the same filtered list — and keep
// completeness, in both assertion directions.
func TestStoreApplyAssertionExactConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 8; trial++ {
		e, _ := tinyNetwork(t, rng)
		n := e.Network().NumCandidates()
		instances, err := EnumerateAll(e, nil, nil, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(n, 4)
		for _, inst := range instances {
			st.Add(inst)
		}
		st.MarkComplete()
		disapproved := bitset.New(n)
		for _, c := range rng.Perm(n)[:n/2] {
			approve := rng.Intn(2) == 0
			if !approve {
				disapproved.Add(c)
			}
			st.ApplyAssertionExact(c, approve, func(inst *bitset.Set) bool {
				return e.Maximal(inst, disapproved)
			})
			if !st.Complete() {
				t.Fatalf("trial %d: exact maintenance revoked completeness", trial)
			}
			// Rebuild a reference store from the surviving instances and
			// compare every probability and partition count.
			ref := NewStore(n, 4)
			st.ForEachInstance(func(inst *bitset.Set) bool {
				if !ref.Add(inst) {
					t.Fatalf("trial %d: exact maintenance kept a duplicate instance", trial)
				}
				return true
			})
			for d := 0; d < n; d++ {
				if got, want := st.Probability(d), ref.Probability(d); got != want {
					t.Fatalf("trial %d: p(%d) = %v, rebuilt store says %v", trial, d, got, want)
				}
				gw, gwo := st.Partition(d)
				rw, rwo := ref.Partition(d)
				if gw != rw || gwo != rwo {
					t.Fatalf("trial %d: partition(%d) = (%d,%d), rebuilt (%d,%d)", trial, d, gw, gwo, rw, rwo)
				}
			}
		}
	}
}

// TestEnumerateWorkBound: a budgeted enumeration must give up — with
// the classifiable overflow error — after O(limit) work even when the
// subset lattice the search walks dwarfs both the limit and the true
// instance count, and any ErrTooManyInstances value must match any
// other under errors.Is regardless of the Limit it carries.
func TestEnumerateWorkBound(t *testing.T) {
	// A wide conflict-free network: every candidate is independent, so
	// there is exactly ONE maximal instance (all candidates) but the
	// lattice has 2^64 subsets. Without the work bound a limit-1 call
	// would walk forever; with it, it must return the overflow error
	// after ~enumWorkFactor·1 + enumWorkFloor nodes.
	e := newWideIndependentNet(t, 64)
	if _, err := EnumerateAll(e, nil, nil, 1); !errors.Is(err, ErrTooManyInstances{}) {
		t.Fatalf("err = %v, want ErrTooManyInstances from the work bound", err)
	}
	// Unbounded enumeration of the same space would be infeasible — that
	// is exactly what limit 0 promises not to guard against — so only
	// check that a generous limit with an adequate work budget succeeds
	// on a small variant.
	small := newWideIndependentNet(t, 8)
	out, err := EnumerateAll(small, nil, nil, 1<<10)
	if err != nil {
		t.Fatalf("small net: %v", err)
	}
	if len(out) != 1 || out[0].Count() != 8 {
		t.Fatalf("small net: got %d instances, want the single all-candidates instance", len(out))
	}
	if !errors.Is(ErrTooManyInstances{Limit: 3}, ErrTooManyInstances{Limit: 99}) {
		t.Fatal("ErrTooManyInstances values must match under errors.Is regardless of Limit")
	}
}

// newWideIndependentNet builds a 2-schema network with w disjoint
// candidate correspondences (no shared attributes → no one-to-one
// conflicts, no schema cycles → no cycle violations).
func newWideIndependentNet(t testing.TB, w int) *constraints.Engine {
	t.Helper()
	b := schema.NewBuilder()
	names := func(prefix string) []string {
		out := make([]string, w)
		for i := range out {
			out[i] = prefix + string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		return out
	}
	s1 := b.AddSchema("L", names("l")...)
	s2 := b.AddSchema("R", names("r")...)
	b.Connect(s1, s2)
	for i := 0; i < w; i++ {
		b.AddCorrespondence(schema.AttrID(i), schema.AttrID(w+i), 0.9)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return constraints.Default(net)
}
