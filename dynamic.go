package schemanet

import (
	"errors"
	"fmt"

	"schemanet/internal/core"
	"schemanet/internal/wal"
)

// Dynamic networks: a live session accepts new schemas, new candidate
// correspondences, and candidate withdrawals without rebuilding. The
// first such op gives the session a network and compiled engine of its
// own (Session.unshare: until then both are shared with every session
// on the same base network). Each mutation then flows through every
// layer incrementally — the session's own network grows in place, the
// compiled conflict index appends
// rows for the new candidates only, the component partition merges (or
// conservatively re-partitions on retire), and the probabilistic
// network carries every untouched component's samples, probabilities,
// and cached ranking verbatim. See DESIGN.md, "Dynamic networks".

// ErrCandidateRetired reports an operation against a candidate that was
// withdrawn through RetireCandidate: retired candidates keep their
// index but have probability 0, are never suggested, and accept no
// feedback.
var ErrCandidateRetired = core.ErrCandidateRetired

// AddSchema registers a new schema on the live session. The schema is
// auto-connected to every existing schema in the interaction graph; it
// arrives without candidates (follow with AddCandidates), so no
// probability changes — the constraint engine just refreshes its cycle
// plans for the new interaction edges.
func (s *Session) AddSchema(name string, attrs ...string) error {
	_, err := s.addSchema(name, attrs)
	return err
}

func (s *Session) addSchema(name string, attrs []string) (map[int]int, error) {
	s.unshare()
	net := s.Network()
	oldN := net.NumCandidates()
	if _, err := net.AppendSchema(name, attrs...); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.names = attrIndex(net)
	s.engine.Grow(oldN)
	carried, err := s.pmn.TopologyChanged(-1)
	if err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.logOps(wal.Record{Kind: wal.KindAddSchema, Schema: name, Attrs: append([]string(nil), attrs...)})
	return carried, nil
}

// AddCandidates appends candidate correspondences to the live session
// (AttrIDs are those of the session's current network — base attributes
// keep their IDs, attributes added by AddSchema follow in append
// order). Components bridged by a new candidate merge; a merged
// component is rebuilt under the accumulated feedback with fresh pieces
// on a content-derived stream, while every untouched component keeps
// its pieces, samples, probabilities, and cached ranking verbatim.
//
// The differential guarantee: any interleaving of AddSchema /
// AddCandidates / RetireCandidate / Assert yields the same component
// partition and inference modes as building the final network from
// scratch and replaying the same assertions — and bit-identical
// probabilities wherever exact inference serves the component.
func (s *Session) AddCandidates(cs []Correspondence) error {
	_, err := s.addCandidates(cs)
	return err
}

func (s *Session) addCandidates(cs []Correspondence) (map[int]int, error) {
	if len(cs) == 0 {
		return nil, errors.New("schemanet: AddCandidates requires at least one correspondence")
	}
	s.unshare()
	net := s.Network()
	oldN := net.NumCandidates()
	if _, err := net.AppendCandidates(cs); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.engine.Grow(oldN)
	carried, err := s.pmn.TopologyChanged(-1)
	if err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	rec := wal.Record{Kind: wal.KindAddCandidates, Cands: make([]wal.CandRecord, len(cs))}
	for i, c := range cs {
		cc := c.Canonical()
		rec.Cands[i] = wal.CandRecord{From: net.FullName(cc.A), To: net.FullName(cc.B), Conf: cc.Confidence}
	}
	s.logOps(rec)
	return carried, nil
}

// RetireCandidate withdraws candidate c from the live session (e.g. a
// matcher recall revoked a correspondence). The candidate keeps its
// index but drops to probability 0, leaves every conflict row and cycle
// plan, is never suggested again, and rejects assertions with
// ErrCandidateRetired. Its component is conservatively re-partitioned —
// a retire can split a component — and the split parts are rebuilt
// under the accumulated feedback. An already-asserted candidate cannot be
// retired (assertions are correct and final).
func (s *Session) RetireCandidate(c int) error {
	_, err := s.retireCandidate(c)
	return err
}

func (s *Session) retireCandidate(c int) (map[int]int, error) {
	if err := s.checkCandidate(c); err != nil {
		return nil, err
	}
	if s.Network().Retired(c) {
		return nil, fmt.Errorf("schemanet: candidate %d: %w", c, ErrCandidateRetired)
	}
	if s.pmn.Feedback().IsAsserted(c) {
		return nil, fmt.Errorf("schemanet: candidate %d: cannot retire an asserted candidate", c)
	}
	s.unshare()
	if err := s.Network().RetireCandidate(c); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.engine.Retire(c)
	carried, err := s.pmn.TopologyChanged(c)
	if err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.logOps(s.pairRecord(wal.KindRetire, c))
	return carried, nil
}
