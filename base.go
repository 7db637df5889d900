package schemanet

import (
	"fmt"
	"sync"

	"schemanet/internal/constraints"
)

// One compiled Γ per base network. Compiling the constraints — the
// schema-cycle enumeration, the conflict index, the component partition
// — depends only on the network and the constraint options, so every
// session opened on one caller *Network under the same constraint
// options shares one compiled base: NewSession, LoadSession and every
// SessionStore reopen fork its engine instead of cloning the network
// and recompiling. A session keeps sharing until its first topology op,
// which gives it a network and engine of its own (Session.unshare). See
// DESIGN.md, "One compiled Γ per base network".

// compiledBase is Γ compiled once for one caller network: a private
// clone of the network, the engine compiled for the clone (its
// partition cache included), and the full-name index of the clone's
// attributes. Sessions fork the engine and read the rest; nothing
// mutates a base after it is built, except the name index's one lazy
// build.
type compiledBase struct {
	net    *Network
	engine *constraints.Engine
	opts   constraintOpts
	// names is built on first use (nameIndex): sessions that never
	// resolve a record by name — no Save, no reload, no durable write —
	// never pay for it.
	namesOnce sync.Once
	names     map[string]AttrID
}

// nameIndex returns the full-name index of the base network's
// attributes, building it on first use. Safe for concurrent use.
func (b *compiledBase) nameIndex() map[string]AttrID {
	b.namesOnce.Do(func() { b.names = attrIndex(b.net) })
	return b.names
}

// constraintOpts are the Options that shape Γ — the key a compiled base
// is memoized under.
type constraintOpts struct {
	oneToOne, cycle bool
	maxCycleLen     int
	pairs           [][2]AttrID
}

// constraintOpts extracts the Γ-shaping fields of defaulted options.
func (o *Options) constraintOpts() constraintOpts {
	return constraintOpts{
		oneToOne: !o.DisableOneToOne, cycle: !o.DisableCycle,
		maxCycleLen: o.MaxCycleLen, pairs: o.ExclusivePairs,
	}
}

// empty reports whether the options leave Γ without a constraint.
func (c constraintOpts) empty() bool {
	return !c.oneToOne && !c.cycle && len(c.pairs) == 0
}

// compile binds Γ to net and compiles it.
func (c constraintOpts) compile(net *Network) *constraints.Engine {
	var cons []constraints.Constraint
	if c.oneToOne {
		cons = append(cons, constraints.NewOneToOne(net))
	}
	if c.cycle {
		cons = append(cons, constraints.NewCycle(net, c.maxCycleLen))
	}
	if len(c.pairs) > 0 {
		cons = append(cons, constraints.NewMutualExclusion(net, c.pairs))
	}
	return constraints.NewEngine(net, cons...)
}

// newBase compiles Γ under c for a private clone of net.
func newBase(net *Network, c constraintOpts) *compiledBase {
	clone := net.Clone()
	return &compiledBase{net: clone, engine: c.compile(clone), opts: c}
}

// sharedBase returns net's compiled base under c, building it on first
// use. The base is memoized on net itself (Network.Memo), keyed by the
// constraint options: it lives as long as net, net keeps one base (a
// session under other constraint options replaces it), and mutating net
// in place drops it, so the next session compiles the grown network
// while existing sessions keep the base they started from. Concurrent
// first uses build one base.
func sharedBase(net *Network, c constraintOpts) *compiledBase {
	return net.Memo(fmt.Sprint(c), func() any { return newBase(net, c) }).(*compiledBase)
}

// unshare gives the session a network and compiled engine of its own
// before its first topology op mutates them: the shared network is
// cloned, Γ is recompiled for the clone, and the session's engine and
// every component fork adopt the recompilation
// (core.PMN.AdoptEngine). The base, and every other session on it, is
// untouched. Pieces, stores and probabilities stay as they are — the
// clone has the same content. A no-op once the session owns its
// network. It must be serialized against all other use of the session;
// ConcurrentSession's topology mutators hold topoMu's write side.
func (s *Session) unshare() {
	if s.base == nil {
		return
	}
	s.pmn.AdoptEngine(s.base.opts.compile(s.base.net.Clone()))
	s.names, s.base = s.base.nameIndex(), nil
}

// attrNames maps every attribute's full name in the session's network
// to its id: the base's index while the session shares the base
// network, its own from unshare on. Records name candidates by these
// names (Save, LoadSession, the store's write guard).
func (s *Session) attrNames() map[string]AttrID {
	if s.base != nil {
		return s.base.nameIndex()
	}
	return s.names
}
