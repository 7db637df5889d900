package schemanet

import (
	"errors"
	"fmt"

	"schemanet/internal/core"
	"schemanet/internal/wal"
)

// Dynamic networks: a live session accepts new schemas, new candidate
// correspondences, and candidate withdrawals without rebuilding. Each
// op mutates the session's own network — on the first op a clone of
// the network it shared with every session on the same base
// (Session.topologyNetwork) — then compiles Γ for it once and has every
// engine fork adopt the compilation (Session.adoptNetwork). The
// probabilistic network then carries every component whose member list
// is unchanged — samples, probabilities, and cached ranking verbatim —
// and rebuilds only the components the op merged, split or touched.
// See DESIGN.md, "Dynamic networks".

// ErrCandidateRetired reports an operation against a candidate that was
// withdrawn through RetireCandidate: retired candidates keep their
// index but have probability 0, are never suggested, and accept no
// feedback.
var ErrCandidateRetired = core.ErrCandidateRetired

// AddSchema registers a new schema on the live session. The schema is
// auto-connected to every existing schema in the interaction graph; it
// arrives without candidates (follow with AddCandidates), so no
// probability changes — the recompiled constraint engine just gains
// cycle plans for the new interaction edges.
func (s *Session) AddSchema(name string, attrs ...string) error {
	_, err := s.addSchema(name, attrs)
	return err
}

func (s *Session) addSchema(name string, attrs []string) (map[int]int, error) {
	net := s.topologyNetwork()
	if _, err := net.AppendSchema(name, attrs...); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.adoptNetwork(net)
	s.names = attrIndex(net)
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
	net := s.topologyNetwork()
	if _, err := net.AppendCandidates(cs); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.adoptNetwork(net)
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
// ErrCandidateRetired. The partition is recompiled with the network,
// so a retire can split its component; the parts are rebuilt under the
// accumulated feedback. An already-asserted candidate cannot be
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
	net := s.topologyNetwork()
	if err := net.RetireCandidate(c); err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.adoptNetwork(net)
	carried, err := s.pmn.TopologyChanged(c)
	if err != nil {
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	s.logOps(s.pairRecord(wal.KindRetire, c))
	return carried, nil
}
