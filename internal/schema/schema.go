// Package schema models schema matching networks as defined in §II of the
// paper: a set of schemas S (each a set of uniquely-identified attributes),
// an interaction graph G_S saying which schema pairs must be matched, and
// a set of candidate correspondences C produced by matchers.
//
// Candidates are indexed 0..|C|-1; all downstream machinery (constraint
// engine, sampler, probabilistic network) addresses correspondences by
// this dense index so instances can be bit sets.
package schema

import (
	"fmt"
	"sync"

	"schemanet/internal/graphs"
)

// AttrID identifies an attribute uniquely across the whole network.
type AttrID int

// SchemaID identifies a schema within a network (also its vertex in the
// interaction graph).
type SchemaID int

// Attribute is a named attribute of one schema.
type Attribute struct {
	ID     AttrID
	Name   string
	Schema SchemaID
}

// Schema is a finite set of attributes, per §II-B.
type Schema struct {
	ID    SchemaID
	Name  string
	Attrs []AttrID
}

// Correspondence is an attribute pair (A, B) between two distinct schemas
// with a matcher confidence value. Pairs are stored canonically with
// A < B.
type Correspondence struct {
	A, B       AttrID
	Confidence float64
}

// Canonical returns the correspondence with endpoints ordered A < B.
func (c Correspondence) Canonical() Correspondence {
	if c.B < c.A {
		c.A, c.B = c.B, c.A
	}
	return c
}

// Pair returns the canonical attribute pair as an array key.
func (c Correspondence) Pair() [2]AttrID {
	c = c.Canonical()
	return [2]AttrID{c.A, c.B}
}

// Network is a schema matching network N = ⟨S, G_S, C⟩ (the constraint
// set Γ lives in package constraints). Build networks with Builder;
// networks built that way are immutable unless grown through the
// in-place mutators in dynamic.go (AppendSchema, AppendCandidates,
// RetireCandidate), which sessions apply only to clones they own.
type Network struct {
	schemas     []Schema
	attrs       []Attribute
	interaction *graphs.Graph
	cands       []Correspondence

	byAttr  [][]int           // AttrID -> indices of incident candidates
	pairIdx map[[2]AttrID]int // canonical pair -> candidate index

	// retired[i] marks candidate i as withdrawn: the entry stays in
	// cands so indices remain stable, but it is removed from byAttr and
	// pairIdx and excluded from constraints and inference. nil when no
	// candidate was ever retired.
	retired []bool

	// memo is one value a layer above derives from the network's
	// content (see Memo); the in-place mutators drop it.
	memo struct {
		mu  sync.Mutex
		key string
		val any
	}
}

// Memo returns the value derived from the network under key, calling
// build on a miss. The network keeps one value: a different key
// replaces it, and the in-place mutators (AppendSchema,
// AppendCandidates, RetireCandidate) drop it, so a value never outlives
// the content it was derived from. Concurrent callers share one build:
// the memo's lock is held while build runs. A Clone starts without a
// memo.
func (n *Network) Memo(key string, build func() any) any {
	m := &n.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.val == nil || m.key != key {
		m.key, m.val = key, build()
	}
	return m.val
}

// dropMemo forgets the memoized value; every in-place mutator calls it
// before changing the network.
func (n *Network) dropMemo() {
	n.memo.mu.Lock()
	n.memo.key, n.memo.val = "", nil
	n.memo.mu.Unlock()
}

// NumSchemas returns |S|.
func (n *Network) NumSchemas() int { return len(n.schemas) }

// NumAttributes returns |A_S|, the total attribute count.
func (n *Network) NumAttributes() int { return len(n.attrs) }

// NumCandidates returns |C|.
func (n *Network) NumCandidates() int { return len(n.cands) }

// SchemaByID returns the schema with the given ID.
func (n *Network) SchemaByID(id SchemaID) Schema {
	return n.schemas[id]
}

// Schemas returns all schemas in ID order.
func (n *Network) Schemas() []Schema {
	out := make([]Schema, len(n.schemas))
	copy(out, n.schemas)
	return out
}

// Attribute returns the attribute with the given ID.
func (n *Network) Attribute(id AttrID) Attribute {
	return n.attrs[id]
}

// SchemaOf returns the schema ID owning attribute a.
func (n *Network) SchemaOf(a AttrID) SchemaID {
	return n.attrs[a].Schema
}

// AttrName returns the bare attribute name.
func (n *Network) AttrName(a AttrID) string {
	return n.attrs[a].Name
}

// FullName renders an attribute as "SchemaName.attrName".
func (n *Network) FullName(a AttrID) string {
	att := n.attrs[a]
	return n.schemas[att.Schema].Name + "." + att.Name
}

// Interaction returns the interaction graph G_S; its vertices are schema
// IDs. The returned graph must not be mutated.
func (n *Network) Interaction() *graphs.Graph { return n.interaction }

// Candidate returns the i-th candidate correspondence.
func (n *Network) Candidate(i int) Correspondence { return n.cands[i] }

// Candidates returns a copy of the candidate slice.
func (n *Network) Candidates() []Correspondence {
	out := make([]Correspondence, len(n.cands))
	copy(out, n.cands)
	return out
}

// CandidatesOf returns the indices of candidates incident to attribute a.
// The returned slice must not be mutated.
func (n *Network) CandidatesOf(a AttrID) []int { return n.byAttr[a] }

// CandidateIndex returns the index of the candidate on the (unordered)
// attribute pair, or -1 if no such candidate exists.
func (n *Network) CandidateIndex(a, b AttrID) int {
	key := Correspondence{A: a, B: b}.Pair()
	if i, ok := n.pairIdx[key]; ok {
		return i
	}
	return -1
}

// SchemaPair returns the two schema IDs connected by candidate i, ordered
// by the candidate's canonical endpoints.
func (n *Network) SchemaPair(i int) (SchemaID, SchemaID) {
	c := n.cands[i]
	return n.attrs[c.A].Schema, n.attrs[c.B].Schema
}

// Other returns the endpoint of candidate i that is not a. It panics if a
// is not an endpoint of the candidate.
func (n *Network) Other(i int, a AttrID) AttrID {
	c := n.cands[i]
	switch a {
	case c.A:
		return c.B
	case c.B:
		return c.A
	}
	panic(fmt.Sprintf("schema: attribute %d not an endpoint of candidate %d", a, i))
}

// DescribeCandidate renders candidate i as
// "SchemaA.attr ↔ SchemaB.attr (conf)".
func (n *Network) DescribeCandidate(i int) string {
	c := n.cands[i]
	return fmt.Sprintf("%s ↔ %s (%.2f)", n.FullName(c.A), n.FullName(c.B), c.Confidence)
}

// Retired reports whether candidate i has been withdrawn via
// RetireCandidate. Retired candidates keep their index (and Candidate(i)
// still renders them) but are absent from CandidatesOf and
// CandidateIndex.
func (n *Network) Retired(i int) bool {
	return n.retired != nil && i < len(n.retired) && n.retired[i]
}

// NumRetired returns the number of retired candidates.
func (n *Network) NumRetired() int {
	c := 0
	for _, r := range n.retired {
		if r {
			c++
		}
	}
	return c
}

// AttributeRange returns the minimum and maximum schema size, as reported
// in the paper's Table II.
func (n *Network) AttributeRange() (minAttrs, maxAttrs int) {
	for i, s := range n.schemas {
		l := len(s.Attrs)
		if i == 0 || l < minAttrs {
			minAttrs = l
		}
		if i == 0 || l > maxAttrs {
			maxAttrs = l
		}
	}
	return minAttrs, maxAttrs
}

// WithCandidates returns a copy of the network carrying a different
// candidate set (used to pair one generated dataset with the output of
// several matchers).
func (n *Network) WithCandidates(cands []Correspondence) (*Network, error) {
	b := &Builder{}
	b.schemas = append([]Schema(nil), n.schemas...)
	b.attrs = append([]Attribute(nil), n.attrs...)
	b.interaction = n.interaction.Clone()
	for _, c := range cands {
		b.AddCorrespondence(c.A, c.B, c.Confidence)
	}
	return b.Build()
}
