package sampling

import (
	"errors"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
)

// referenceEnumerateWithin is the universe-scan form of EnumerateWithin:
// the same search, node counting, and work bound, but every leaf is
// checked with Engine.Maximal against ¬within ∪ F− over all C
// candidates. It is the oracle the free-list leaf check must match.
func referenceEnumerateWithin(e *constraints.Engine, approved, disapproved, within *bitset.Set, limit int) ([]*bitset.Set, error) {
	n := e.Network().NumCandidates()
	_, excluded := FeedbackWithin(n, nil, disapproved, within, nil, nil)
	base := e.NewInstance()
	if approved != nil {
		ok := true
		approved.ForEach(func(c int) bool {
			if within != nil && !within.Has(c) {
				return true
			}
			if e.HasConflict(base, c) {
				ok = false
				return false
			}
			base.Add(c)
			return true
		})
		if !ok {
			return nil, nil
		}
	}
	net := e.Network()
	var free []int
	for c := 0; c < n; c++ {
		if (within == nil || within.Has(c)) && !base.Has(c) &&
			(disapproved == nil || !disapproved.Has(c)) && !net.Retired(c) {
			free = append(free, c)
		}
	}
	var out []*bitset.Set
	var overflow error
	cur := base.Clone()
	work, maxWork := 0, 0
	if limit > 0 {
		maxWork = enumWorkFactor*limit + enumWorkFloor
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if maxWork > 0 {
			if work++; work > maxWork {
				overflow = ErrTooManyInstances{Limit: limit}
				return false
			}
		}
		if i == len(free) {
			if e.Maximal(cur, excluded) {
				if limit > 0 && len(out) >= limit {
					overflow = ErrTooManyInstances{Limit: limit}
					return false
				}
				out = append(out, cur.Clone())
			}
			return true
		}
		c := free[i]
		if !e.HasConflict(cur, c) {
			cur.Add(c)
			if !rec(i + 1) {
				return false
			}
			cur.Remove(c)
		}
		return rec(i + 1)
	}
	rec(0)
	if overflow != nil {
		return nil, overflow
	}
	return out, nil
}

// randomFeedback draws F+ from a random maximal instance restricted to
// within (so it is usually consistent) and F− from the remaining
// candidates, at a random density (a third of the draws assert
// nothing); every fifth draw adds an arbitrary extra approval, which
// may make F+ inconsistent.
func randomFeedback(e *constraints.Engine, within *bitset.Set, rng *rand.Rand) (approved, disapproved *bitset.Set) {
	n := e.Network().NumCandidates()
	approved, disapproved = bitset.New(n), bitset.New(n)
	inst := e.NewInstance()
	e.Maximize(inst, nil, rng)
	density := rng.Intn(3) * 4 // 0: no feedback; else ~1/4 or ~1/8
	for c := 0; c < n && density > 0; c++ {
		if within != nil && !within.Has(c) {
			continue
		}
		switch {
		case inst.Has(c) && rng.Intn(density) == 0:
			approved.Add(c)
		case !inst.Has(c) && rng.Intn(density) == 0:
			disapproved.Add(c)
		}
	}
	if rng.Intn(5) == 0 {
		approved.Add(rng.Intn(n))
	}
	return approved, disapproved
}

// TestEnumerateWithinMatchesUniverseScan is the differential check of
// the free-list leaf maximality test: on random multi-component
// networks with random F+/F−, some candidates retired through the
// engine, and budgets on both sides of the overflow edge,
// EnumerateWithin returns the reference's instance list in the same
// order, and overflows exactly when the reference does.
func TestEnumerateWithinMatchesUniverseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	compared := 0
	for trial := 0; trial < 18; trial++ {
		var e *constraints.Engine
		switch trial % 3 {
		case 0:
			// Many small components; the whole-universe scope is large.
			d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
				TargetCount: 12 + rng.Intn(48), Precision: 0.67, ConflictBias: 0.7, StrictCount: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			e = constraints.Default(d.Network)
		case 1:
			// Few dense components with wide instance spaces.
			e, _ = tinyNetwork(t, rng)
		default:
			// Conflict-free: one instance over a 2^w subset lattice, so
			// the work bound, not the instance count, sets the edge.
			e = newWideIndependentNet(t, 10+rng.Intn(3))
		}
		net := e.Network()
		n := net.NumCandidates()
		for r := 0; r < 1+rng.Intn(3); r++ {
			c := rng.Intn(n)
			if net.Retired(c) {
				continue
			}
			if err := net.RetireCandidate(c); err != nil {
				t.Fatal(err)
			}
			e.Retire(c)
		}

		parts := e.Components()
		scopes := []*bitset.Set{nil} // the whole universe first
		for k := 0; k < parts.NumComponents(); k++ {
			scopes = append(scopes, bitset.FromIndices(n, parts.Members(k)...))
		}
		for si, within := range scopes {
			approved, disapproved := randomFeedback(e, within, rng)
			check := func(limit int) error {
				t.Helper()
				want, werr := referenceEnumerateWithin(e, approved, disapproved, within, limit)
				got, gerr := EnumerateWithin(e, approved, disapproved, within, limit)
				if errors.Is(werr, ErrTooManyInstances{}) != errors.Is(gerr, ErrTooManyInstances{}) {
					t.Fatalf("trial %d scope %d limit %d: overflow %v, reference %v", trial, si, limit, gerr, werr)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d scope %d limit %d: %d instances, reference %d", trial, si, limit, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d scope %d limit %d: instance %d differs from the reference", trial, si, limit, i)
					}
				}
				compared++
				return werr
			}
			// The overflow edge: the smallest budget both the instance
			// count and the work bound fit (success is monotone in the
			// budget), found by bisection on the reference, then checked
			// one below and at the edge.
			lo, hi := 1, 1<<12
			if check(hi) != nil {
				check(1)
				check(64)
				continue
			}
			for lo < hi {
				mid := (lo + hi) / 2
				if _, err := referenceEnumerateWithin(e, approved, disapproved, within, mid); err != nil {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo > 1 {
				if check(lo-1) == nil {
					t.Fatalf("trial %d scope %d: budget %d below the edge did not overflow", trial, si, lo-1)
				}
			}
			if err := check(lo); err != nil {
				t.Fatalf("trial %d scope %d: budget %d at the edge overflowed: %v", trial, si, lo, err)
			}
			check(0)
		}
	}
	if compared < 100 {
		t.Fatalf("only %d enumerations compared; the fixture is too small", compared)
	}
}
