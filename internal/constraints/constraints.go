// Package constraints implements the network-level integrity constraints
// Γ of the paper (§II-A): the one-to-one constraint and the cycle
// constraint, together with the machinery the sampler and instantiation
// heuristic need — incremental conflict detection, the greedy repair
// routine (Algorithm 4), and maximality saturation for matching
// instances (Definition 1).
//
// Constraints are *anti-monotone*: a violation is a set of candidate
// correspondences that must not all be selected together, so any subset
// of a consistent instance is consistent. Both paper constraints have
// this property, and the engine relies on it (repairing by removal only).
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"schemanet/internal/bitset"
)

// Violation is a minimal set of co-selected candidates that breaks a
// constraint. Cands holds candidate indices in ascending order.
type Violation struct {
	Constraint string
	Cands      []int
}

// Key returns a canonical identity for deduplication.
func (v Violation) Key() string {
	var b strings.Builder
	b.WriteString(v.Constraint)
	for _, c := range v.Cands {
		fmt.Fprintf(&b, ":%d", c)
	}
	return b.String()
}

// fingerprint returns a 64-bit FNV-1a hash of (Constraint, Cands).
// Cands are sorted by construction, so equal violations always share a
// fingerprint; ViolationCount compares with equal on collision.
func (v Violation) fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(v.Constraint); i++ {
		h ^= uint64(v.Constraint[i])
		h *= prime64
	}
	h ^= uint64(len(v.Cands))
	h *= prime64
	for _, c := range v.Cands {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// equal reports whether two violations have the same kind and members.
func (v Violation) equal(w Violation) bool {
	if v.Constraint != w.Constraint || len(v.Cands) != len(w.Cands) {
		return false
	}
	for i, c := range v.Cands {
		if c != w.Cands[i] {
			return false
		}
	}
	return true
}

func newViolation(kind string, cands ...int) Violation {
	sort.Ints(cands)
	return Violation{Constraint: kind, Cands: cands}
}

// Constraint is one integrity constraint bound to a network. The paper
// imposes no assumptions on the constraint definitions (§II-B); any
// anti-monotone constraint can be plugged into the Engine.
type Constraint interface {
	// Name identifies the constraint kind (e.g. "one-to-one").
	Name() string
	// HasConflict reports whether candidate c, treated as selected,
	// participates in at least one violation given the other members of
	// inst. Membership of c itself in inst is ignored.
	HasConflict(inst *bitset.Set, c int) bool
	// ConflictsWith returns all violations that involve candidate c,
	// treated as selected, given the other members of inst.
	ConflictsWith(inst *bitset.Set, c int) []Violation
	// Violations returns every violation among the members of inst, each
	// exactly once.
	Violations(inst *bitset.Set) []Violation
	// Compile emits the constraint's compiled form, evaluated once per
	// network at engine construction (see DESIGN.md, "Compiled conflict
	// index"). It must pick one of the two shapes of Compiled; NewEngine
	// rejects a constraint whose compilation has neither.
	Compile() Compiled
}

// Compiled is the output of a constraint's compile phase. The engine
// owns the conflict rows it is handed and may modify them, so Compile
// returns fresh rows on every call. A constraint picks exactly one of
// the two shapes:
//
//   - Pairwise: ConflictRows[c] is the exact, symmetric set of candidates
//     that can never coexist with c — every violation of the constraint is
//     a pair {c, d} with d ∈ ConflictRows[c]. The engine folds the rows of
//     all pairwise constraints into one shared conflict matrix and never
//     dispatches to the constraint's methods on the hot path.
//
//   - Gated: GateMasks[c] over-approximates the candidates other than c
//     that can participate in a violation involving c, and GateMin[c] is
//     the minimum |inst ∩ GateMasks[c]| any such violation requires. The
//     engine runs one word-wise AndCount as an early-out before the
//     constraint's own HasConflict; a nil mask means c can never be in
//     violation. The constraint must also stream its violations through
//     ForEachChain (as Cycle does).
type Compiled struct {
	ConflictRows []*bitset.Set
	GateMasks    []*bitset.Set
	GateMin      []int
}

// Pairwise reports whether the compilation is a complete pairwise
// conflict relation.
func (c Compiled) Pairwise() bool { return c.ConflictRows != nil }

// Gated reports whether the compilation is an early-out gate over the
// constraint's own check.
func (c Compiled) Gated() bool { return c.GateMasks != nil }
