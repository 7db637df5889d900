package schemanet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"schemanet/internal/constraints"
	"schemanet/internal/core"
)

// sessionState is the serialized form of a session. Version 1 is the
// assertion history in order; Version 2 — written whenever the session
// mutated its topology (AddSchema, AddCandidates, RetireCandidate) —
// is the full interleaved operation stream, so replay reconstructs the
// network growth between the assertions exactly as it happened.
// Probabilities are not persisted — they are recomputed
// deterministically from the network, the options, and the replayed
// operations. A session that never changed topology still writes
// Version 1, so files stay readable by older loaders.
//
// The same format doubles as the SessionStore's snapshot file: there,
// Seq records the WAL sequence number the snapshot covers (recovery
// drops WAL records at or below it), and each entry may carry the
// asserting annotator. Plain Session.Save leaves both zero — a
// snapshot is always also a loadable saved session.
type sessionState struct {
	Version    int              `json:"version"`
	Seq        uint64           `json:"seq,omitempty"`
	Candidates int              `json:"candidates"`
	History    []savedAssertion `json:"history,omitempty"`
	// Ops is the Version 2 payload: assertions and topology mutations in
	// arrival order. History is empty when Ops is present.
	Ops []savedOp `json:"ops,omitempty"`
}

// savedOp is one Version 2 operation: an assertion ("assert") or a
// topology mutation ("add-schema", "add-candidates", "retire").
// Candidates are referenced by attribute full names, like Version 1
// history entries, so the stream survives candidate reindexing.
type savedOp struct {
	Kind      string      `json:"kind"`
	From      string      `json:"from,omitempty"` // assert, retire
	To        string      `json:"to,omitempty"`   // assert, retire
	Approved  bool        `json:"approved,omitempty"`
	Annotator string      `json:"annotator,omitempty"`
	Schema    string      `json:"schema,omitempty"` // add-schema
	Attrs     []string    `json:"attrs,omitempty"`  // add-schema
	Cands     []savedCand `json:"cands,omitempty"`  // add-candidates
}

// assertion returns an "assert" op in history-entry form.
func (op savedOp) assertion() savedAssertion {
	return savedAssertion{From: op.From, To: op.To, Approved: op.Approved, Annotator: op.Annotator}
}

// savedAssertion references a correspondence by its attribute names so
// saved sessions survive candidate reordering across versions.
type savedAssertion struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Approved  bool   `json:"approved"`
	Annotator string `json:"annotator,omitempty"`
}

// Save writes the session's feedback so reconciliation can resume later
// (see LoadSession). The pay-as-you-go workflow spans days in practice;
// the expert's assertions are the only state worth keeping.
//
// Save validates before writing: every history entry must resolve from
// its attribute names back to the asserted candidate (an ambiguous
// FullName — two attributes sharing a printed name — would make the
// file unloadable). On any error nothing is written to w: the state is
// marshaled in memory and emitted with a single Write, so a failed
// Save can never leave a half-written session file behind.
func (s *Session) Save(w io.Writer) error {
	st, err := s.sessionState()
	if err != nil {
		return err
	}
	return writeSessionState(w, st)
}

// sessionState snapshots the assertion history (and, for sessions that
// mutated their topology, the interleaved operation stream) in
// saveable, validated form.
func (s *Session) sessionState() (sessionState, error) {
	net := s.Network()
	hist := s.pmn.Feedback().History()
	rendered := make([]savedAssertion, len(hist))
	for i, a := range hist {
		c := net.Candidate(a.Cand)
		rendered[i] = savedAssertion{
			From:     net.FullName(c.A),
			To:       net.FullName(c.B),
			Approved: a.Approved,
		}
	}
	// Rendered names resolve against the final network even for
	// assertions recorded before later growth: attributes are never
	// removed, and an asserted candidate can never be retired, so its
	// pair lookup stays stable.
	if err := validateSaveable(net, rendered, hist); err != nil {
		return sessionState{}, err
	}
	if len(s.topoOps) == 0 {
		return sessionState{Version: 1, Candidates: net.NumCandidates(), History: rendered}, nil
	}
	st := sessionState{Version: 2, Candidates: net.NumCandidates()}
	hi := 0
	emitAsserts := func(upto int) {
		for ; hi < upto && hi < len(rendered); hi++ {
			sa := rendered[hi]
			st.Ops = append(st.Ops, savedOp{Kind: "assert", From: sa.From, To: sa.To, Approved: sa.Approved})
		}
	}
	for _, op := range s.topoOps {
		emitAsserts(op.at)
		switch op.kind {
		case topoAddSchema:
			st.Ops = append(st.Ops, savedOp{Kind: "add-schema", Schema: op.schema, Attrs: op.attrs})
		case topoAddCandidates:
			st.Ops = append(st.Ops, savedOp{Kind: "add-candidates", Cands: op.cands})
		case topoRetire:
			st.Ops = append(st.Ops, savedOp{Kind: "retire", From: op.from, To: op.to})
		}
	}
	emitAsserts(len(rendered))
	return st, nil
}

// validateSaveable proves each rendered history entry resolves back to
// the candidate it was rendered from, so the file LoadSession sees is
// guaranteed loadable.
func validateSaveable(net *Network, hist []savedAssertion, src []core.Assertion) error {
	idx := attrIndex(net)
	for i, sa := range hist {
		a, err := resolveSaved(net, idx, i, sa)
		if err != nil {
			return fmt.Errorf("schemanet: save: %w", err)
		}
		if a.Cand != src[i].Cand {
			return fmt.Errorf("schemanet: save: history entry %d: %q ↔ %q resolves to candidate %d, not the asserted %d (ambiguous attribute name)",
				i, sa.From, sa.To, a.Cand, src[i].Cand)
		}
	}
	return nil
}

// writeSessionState marshals st and emits it with one Write.
func writeSessionState(w io.Writer, st sessionState) error {
	buf, err := marshalSessionState(st)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func marshalSessionState(st sessionState) ([]byte, error) {
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("schemanet: encoding session: %w", err)
	}
	return append(buf, '\n'), nil
}

// attrIndex maps every attribute's full name to its id.
func attrIndex(net *Network) map[string]AttrID {
	idx := make(map[string]AttrID, net.NumAttributes())
	for _, sch := range net.Schemas() {
		for _, a := range sch.Attrs {
			idx[net.FullName(a)] = a
		}
	}
	return idx
}

// resolveSaved resolves one saved history entry to a core assertion.
// Errors carry the history index and the offending field, so a corrupt
// record in a large file is diagnosable without a hex dump.
func resolveSaved(net *Network, idx map[string]AttrID, i int, sa savedAssertion) (core.Assertion, error) {
	resolve := func(field, name string) (AttrID, error) {
		if name == "" {
			return 0, fmt.Errorf("session entry %d, field %q: empty attribute name", i, field)
		}
		a, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("session entry %d, field %q: unknown attribute %q", i, field, name)
		}
		return a, nil
	}
	a, err := resolve("from", sa.From)
	if err != nil {
		return core.Assertion{}, err
	}
	b, err := resolve("to", sa.To)
	if err != nil {
		return core.Assertion{}, err
	}
	c := net.CandidateIndex(a, b)
	if c < 0 {
		return core.Assertion{}, fmt.Errorf("session entry %d: %s ↔ %s is not a candidate correspondence",
			i, sa.From, sa.To)
	}
	return core.Assertion{Cand: c, Approved: sa.Approved}, nil
}

// resolveHistory resolves a full saved history, rejecting duplicates
// with both positions named.
func resolveHistory(net *Network, hist []savedAssertion) ([]core.Assertion, error) {
	if len(hist) == 0 {
		return nil, nil
	}
	idx := attrIndex(net)
	batch := make([]core.Assertion, 0, len(hist))
	first := make(map[int]int, len(hist))
	for i, sa := range hist {
		a, err := resolveSaved(net, idx, i, sa)
		if err != nil {
			return nil, err
		}
		if j, dup := first[a.Cand]; dup {
			return nil, fmt.Errorf("session entry %d: duplicate assertion for %s ↔ %s (first at entry %d)",
				i, sa.From, sa.To, j)
		}
		first[a.Cand] = i
		batch = append(batch, a)
	}
	return batch, nil
}

// resolveSavedCands resolves an add-candidates op's name-form
// correspondences against the (current, mid-replay) network.
func resolveSavedCands(net *Network, i int, scs []savedCand) ([]Correspondence, error) {
	idx := attrIndex(net)
	out := make([]Correspondence, len(scs))
	for j, sc := range scs {
		a, ok := idx[sc.From]
		if !ok {
			return nil, fmt.Errorf("session op %d, candidate %d: unknown attribute %q", i, j, sc.From)
		}
		b, ok := idx[sc.To]
		if !ok {
			return nil, fmt.Errorf("session op %d, candidate %d: unknown attribute %q", i, j, sc.To)
		}
		out[j] = Correspondence{A: a, B: b, Confidence: sc.Conf}
	}
	return out, nil
}

// historyOps renders a Version 1 history as the equivalent all-assert
// operation stream.
func historyOps(hist []savedAssertion) []savedOp {
	ops := make([]savedOp, len(hist))
	for i, sa := range hist {
		ops[i] = savedOp{Kind: "assert", From: sa.From, To: sa.To, Approved: sa.Approved, Annotator: sa.Annotator}
	}
	return ops
}

// replaySessionOps restores a session from its operation stream — the
// one replay path of LoadSession (a Version 1 history is an all-assert
// stream) and of the SessionStore's WAL recovery. The leading run of
// assertions is folded into construction: it becomes the session's
// initial feedback, and every component is enumerated or sampled under
// it directly (core.NewWithHistory) instead of being filled from the
// unconditioned network and filtered. The rest of the stream goes
// through replayOps.
func replaySessionOps(net *Network, opts *Options, ops []savedOp) (*Session, error) {
	lead := 0
	for lead < len(ops) && ops[lead].Kind == "assert" {
		lead++
	}
	hist := make([]savedAssertion, lead)
	for i, op := range ops[:lead] {
		hist[i] = op.assertion()
	}
	s, err := newSession(net, opts, constraints.NewEngine, hist)
	if err != nil {
		return nil, err
	}
	if err := s.replayOps(ops[lead:], lead); err != nil {
		return nil, err
	}
	return s, nil
}

// replayOps applies a saved operation stream to a live session; base is
// the index of ops[0] in the whole stream, for error context. Topology
// mutations go through the same public mutators a live session uses,
// and the assertions between two mutations are batch-applied against
// the network state of that moment. Under exact inference the result is
// bit-identical to the live session (assertion filtering is
// order-independent within a segment); rebuilt components draw their
// content-derived sampler streams exactly as the live mutation did.
func (s *Session) replayOps(ops []savedOp, base int) error {
	var pending []savedAssertion
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch, err := resolveHistory(s.Network(), pending)
		if err != nil {
			return fmt.Errorf("schemanet: %w", err)
		}
		pending = pending[:0]
		if err := s.pmn.AssertBatch(batch); err != nil {
			return fmt.Errorf("schemanet: replaying session history: %w", err)
		}
		return nil
	}
	for j, op := range ops {
		i := base + j
		switch op.Kind {
		case "assert":
			pending = append(pending, op.assertion())
		case "add-schema":
			if err := flush(); err != nil {
				return err
			}
			if err := s.AddSchema(op.Schema, op.Attrs...); err != nil {
				return fmt.Errorf("schemanet: session op %d: %w", i, err)
			}
		case "add-candidates":
			if err := flush(); err != nil {
				return err
			}
			cs, err := resolveSavedCands(s.Network(), i, op.Cands)
			if err != nil {
				return fmt.Errorf("schemanet: %w", err)
			}
			if err := s.AddCandidates(cs); err != nil {
				return fmt.Errorf("schemanet: session op %d: %w", i, err)
			}
		case "retire":
			if err := flush(); err != nil {
				return err
			}
			cur := s.Network()
			idx := attrIndex(cur)
			a, oka := idx[op.From]
			b, okb := idx[op.To]
			if !oka || !okb {
				return fmt.Errorf("schemanet: session op %d: unknown attribute in retire %q ↔ %q", i, op.From, op.To)
			}
			c := cur.CandidateIndex(a, b)
			if c < 0 {
				return fmt.Errorf("schemanet: session op %d: retire target %s ↔ %s is not a live candidate", i, op.From, op.To)
			}
			if err := s.RetireCandidate(c); err != nil {
				return fmt.Errorf("schemanet: session op %d: %w", i, err)
			}
		default:
			return fmt.Errorf("schemanet: session op %d: unknown kind %q", i, op.Kind)
		}
	}
	return flush()
}

// decodeSessionState parses a saved session, annotating JSON-level
// failures with their byte offset.
func decodeSessionState(r io.Reader) (sessionState, error) {
	var st sessionState
	dec := json.NewDecoder(r)
	if err := dec.Decode(&st); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return st, fmt.Errorf("schemanet: decoding session at byte offset %d: %w", syn.Offset, err)
		case errors.As(err, &typ):
			return st, fmt.Errorf("schemanet: decoding session at byte offset %d, field %q: %w", typ.Offset, typ.Field, err)
		default:
			return st, fmt.Errorf("schemanet: decoding session: %w", err)
		}
	}
	if st.Version != 1 && st.Version != 2 {
		return st, fmt.Errorf("schemanet: unsupported session version %d", st.Version)
	}
	return st, nil
}

// LoadSession builds a fresh session for net and replays the feedback
// previously written by Save. The network must contain every asserted
// correspondence (same or compatible candidate set).
//
// The saved history is not replayed assertion by assertion: it becomes
// the new session's initial feedback, and every constraint-connected
// component is built under it directly — an exact component enumerates
// the instances consistent with the history, a sampled one draws its
// initial samples seeded from the approvals and excluding the
// disapprovals (Algorithm 3). No resampling round is paid and nothing
// is filtered away. Exact components come out bit-identical to the
// saved session's; sampled estimates are statistically equivalent (they
// come from fresh samples either way). Components the history never
// touched are filled exactly as NewSession fills them.
//
// Per-component inference modes are derived state and are not
// persisted: construction reconstructs them deterministically. Under
// Options.Inference = "auto", whether a component serves exact
// probabilities depends only on its accumulated feedback and the
// budget — free-candidate counts only ever shrink and the budgeted
// enumeration probe is deterministic — so the final mode (and, for
// exact components, the bit-exact probabilities) of the restored
// session match the saved one even when promotions happened mid-session
// rather than at restore time. Under Options.Inference = "exact" with
// an ExactBudget, the budget applies to the restored state: a history
// that shrinks every component within budget loads even where
// NewSession on the same network fails with ErrExactBudgetExceeded.
//
// A Version 2 file (written by a session that mutated its topology)
// replays against the network the session STARTED from: pass the same
// base network. Its leading assertions are folded into construction as
// above; the recorded AddSchema / AddCandidates / RetireCandidate
// operations then re-grow the network — interleaved with the later
// assertions, which are batch-applied in arrival order — to reconstruct
// the final session.
//
// Option errors are reported before history errors. Decoder errors
// carry positional context: the byte offset for JSON syntax and type
// failures, the history index and field for records that do not
// resolve against net.
func LoadSession(net *Network, opts *Options, r io.Reader) (*Session, error) {
	ops, err := decodeSessionOps(r)
	if err != nil {
		return nil, err
	}
	return replaySessionOps(net, opts, ops)
}

// decodeSessionOps parses a saved session into its operation stream; a
// Version 1 history is the equivalent all-assert stream.
func decodeSessionOps(r io.Reader) ([]savedOp, error) {
	st, err := decodeSessionState(r)
	if err != nil {
		return nil, err
	}
	if st.Version == 1 {
		return historyOps(st.History), nil
	}
	return st.Ops, nil
}
