package schemanet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"schemanet/internal/core"
	"schemanet/internal/wal"
)

// sessionState is the serialized form of a session's operation log.
// Version 1 is the assertion history in order; Version 2 — written
// whenever the log holds a topology mutation (AddSchema, AddCandidates,
// RetireCandidate) — is the full interleaved operation stream, so
// replay reconstructs the network growth between the assertions exactly
// as it happened. Probabilities are not persisted — they are recomputed
// deterministically from the network, the options, and the replayed
// operations. A session that never changed topology still writes
// Version 1, so files stay readable by older loaders.
//
// Earlier versions of the SessionStore kept a snapshot.json in this
// format beside each WAL, with Seq recording the WAL sequence number it
// covered; the store migrates one on open (see SessionStore), and
// LoadSession reads one as a saved session. Save never writes Seq.
// Entries carry the asserting annotator wherever the log has one.
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

// savedCand is one appended candidate in name form (full attribute
// names survive serialization and replay; indices do not).
type savedCand struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Conf float64 `json:"conf"`
}

// savedAssertion references a correspondence by its attribute names so
// saved sessions survive candidate reordering across versions.
type savedAssertion struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Approved  bool   `json:"approved"`
	Annotator string `json:"annotator,omitempty"`
}

// opKinds names each record kind in a Version 2 stream.
var opKinds = [...]string{
	wal.KindAssert:        "assert",
	wal.KindAddSchema:     "add-schema",
	wal.KindAddCandidates: "add-candidates",
	wal.KindRetire:        "retire",
}

// Save writes the session's operation log so reconciliation can resume
// later (see LoadSession). The pay-as-you-go workflow spans days in
// practice; the expert's assertions are the only state worth keeping.
// A session restored from an annotated history (a legacy store
// snapshot) keeps its annotators.
//
// Save validates before writing: every asserted candidate must resolve
// from its attribute names back to itself (an ambiguous FullName — two
// attributes sharing a printed name — would make the file unloadable).
// On any error nothing is written to w: the state is marshaled in
// memory and emitted with a single Write, so a failed Save can never
// leave a half-written session file behind.
func (s *Session) Save(w io.Writer) error {
	// Names resolve against the final network even for assertions
	// recorded before later growth: attributes are never removed, and an
	// asserted candidate can never be retired, so its pair lookup stays
	// stable.
	net := s.Network()
	for _, a := range s.pmn.Feedback().History() {
		if err := resolvesBack(net, s.attrNames(), a.Cand); err != nil {
			return fmt.Errorf("schemanet: save: %w", err)
		}
	}
	buf, err := encodeSession(s.log, net.NumCandidates())
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// resolvesBack proves candidate c's attribute full names resolve back
// to c. Every named record passes it before it is written — Save for
// each asserted candidate, the store before a durable write is applied
// — because LoadSession and recovery find candidates by name.
func resolvesBack(net *Network, idx map[string]AttrID, c int) error {
	cand := net.Candidate(c)
	from, to := net.FullName(cand.A), net.FullName(cand.B)
	a, okA := idx[from]
	b, okB := idx[to]
	if !okA || !okB || net.CandidateIndex(a, b) != c {
		return fmt.Errorf("candidate %d (%s ↔ %s) does not resolve back by name (ambiguous attribute name)", c, from, to)
	}
	return nil
}

// encodeSession renders an operation log as a saved session: Version 1
// when the log holds only assertions, Version 2 otherwise.
func encodeSession(log []wal.Record, candidates int) ([]byte, error) {
	st := sessionState{Version: 1, Candidates: candidates}
	for _, r := range log {
		if r.Kind != wal.KindAssert {
			st.Version = 2
			break
		}
	}
	for _, r := range log {
		if st.Version == 1 {
			st.History = append(st.History, savedAssertion{From: r.From, To: r.To, Approved: r.Approved, Annotator: r.Annotator})
			continue
		}
		op := savedOp{Kind: opKinds[r.Kind], From: r.From, To: r.To, Approved: r.Approved,
			Annotator: r.Annotator, Schema: r.Schema, Attrs: r.Attrs}
		for _, c := range r.Cands {
			op.Cands = append(op.Cands, savedCand{From: c.From, To: c.To, Conf: c.Conf})
		}
		st.Ops = append(st.Ops, op)
	}
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("schemanet: encoding session: %w", err)
	}
	return append(buf, '\n'), nil
}

// decodeSession parses a saved session or legacy store snapshot into
// its operation log (Seq = position) and the sequence number it covers:
// its Seq field, or the log's length when that is unset. JSON-level
// failures carry their byte offset.
func decodeSession(r io.Reader) ([]wal.Record, uint64, error) {
	var st sessionState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			return nil, 0, fmt.Errorf("schemanet: decoding session at byte offset %d: %w", syn.Offset, err)
		case errors.As(err, &typ):
			return nil, 0, fmt.Errorf("schemanet: decoding session at byte offset %d, field %q: %w", typ.Offset, typ.Field, err)
		default:
			return nil, 0, fmt.Errorf("schemanet: decoding session: %w", err)
		}
	}
	var log []wal.Record
	switch st.Version {
	case 1:
		log = make([]wal.Record, len(st.History))
		for i, sa := range st.History {
			log[i] = wal.Record{Seq: uint64(i + 1), Annotator: sa.Annotator, From: sa.From, To: sa.To, Approved: sa.Approved}
		}
	case 2:
		log = make([]wal.Record, len(st.Ops))
		for i, op := range st.Ops {
			kind := slices.Index(opKinds[:], op.Kind)
			if kind < 0 {
				return nil, 0, fmt.Errorf("schemanet: session op %d: unknown kind %q", i, op.Kind)
			}
			rec := wal.Record{Seq: uint64(i + 1), Kind: wal.RecordKind(kind), Annotator: op.Annotator,
				From: op.From, To: op.To, Approved: op.Approved, Schema: op.Schema, Attrs: op.Attrs}
			for _, c := range op.Cands {
				rec.Cands = append(rec.Cands, wal.CandRecord{From: c.From, To: c.To, Conf: c.Conf})
			}
			log[i] = rec
		}
	default:
		return nil, 0, fmt.Errorf("schemanet: unsupported session version %d", st.Version)
	}
	if st.Seq == 0 {
		st.Seq = uint64(len(log))
	}
	return log, st.Seq, nil
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

// resolveSaved resolves one logged assertion to a core assertion.
// Errors carry the history index and the offending field, so a corrupt
// record in a large file is diagnosable without a hex dump.
func resolveSaved(net *Network, idx map[string]AttrID, i int, rec wal.Record) (core.Assertion, error) {
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
	a, err := resolve("from", rec.From)
	if err != nil {
		return core.Assertion{}, err
	}
	b, err := resolve("to", rec.To)
	if err != nil {
		return core.Assertion{}, err
	}
	c := net.CandidateIndex(a, b)
	if c < 0 {
		return core.Assertion{}, fmt.Errorf("session entry %d: %s ↔ %s is not a candidate correspondence",
			i, rec.From, rec.To)
	}
	return core.Assertion{Cand: c, Approved: rec.Approved}, nil
}

// resolveHistory resolves a run of logged assertions against net and
// its full-name index idx, rejecting duplicates with both positions
// named.
func resolveHistory(net *Network, idx map[string]AttrID, hist []wal.Record) ([]core.Assertion, error) {
	batch := make([]core.Assertion, 0, len(hist))
	first := make(map[int]int, len(hist))
	for i, rec := range hist {
		a, err := resolveSaved(net, idx, i, rec)
		if err != nil {
			return nil, err
		}
		if j, dup := first[a.Cand]; dup {
			return nil, fmt.Errorf("session entry %d: duplicate assertion for %s ↔ %s (first at entry %d)",
				i, rec.From, rec.To, j)
		}
		first[a.Cand] = i
		batch = append(batch, a)
	}
	return batch, nil
}

// resolveCands resolves an add-candidates record's name-form
// correspondences against a full-name index of the (current,
// mid-replay) network.
func resolveCands(idx map[string]AttrID, i int, crs []wal.CandRecord) ([]Correspondence, error) {
	out := make([]Correspondence, len(crs))
	for j, cr := range crs {
		a, ok := idx[cr.From]
		if !ok {
			return nil, fmt.Errorf("session op %d, candidate %d: unknown attribute %q", i, j, cr.From)
		}
		b, ok := idx[cr.To]
		if !ok {
			return nil, fmt.Errorf("session op %d, candidate %d: unknown attribute %q", i, j, cr.To)
		}
		out[j] = Correspondence{A: a, B: b, Confidence: cr.Conf}
	}
	return out, nil
}

// replaySessionOps restores a session from its operation log — the one
// replay path of LoadSession and of the SessionStore's recovery. The
// leading run of assertions is folded into construction: it becomes the
// session's initial feedback, and every component is enumerated or
// sampled under it directly (core.NewWithHistory) instead of being
// filled from the unconditioned network and filtered. The rest of the
// log goes through replayOps.
func replaySessionOps(net *Network, opts *Options, log []wal.Record) (*Session, error) {
	lead := 0
	for lead < len(log) && log[lead].Kind == wal.KindAssert {
		lead++
	}
	s, err := newSession(net, opts, log[:lead], sharedBase)
	if err != nil {
		return nil, err
	}
	if err := s.replayOps(log[lead:], lead); err != nil {
		return nil, err
	}
	return s, nil
}

// replayOps applies a logged operation stream to a live session; base
// is the index of log[0] in the whole stream, for error context.
// Topology mutations go through the same mutators a live session uses,
// and the assertions between two mutations are batch-applied against
// the network state of that moment. Every applied record lands in the
// session's own log, annotators included. Under exact inference the
// result is bit-identical to the live session (assertion filtering is
// order-independent within a segment); rebuilt components draw their
// content-derived sampler streams exactly as the live mutation did.
func (s *Session) replayOps(log []wal.Record, base int) error {
	var pending []wal.Record
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch, err := resolveHistory(s.Network(), s.attrNames(), pending)
		if err != nil {
			return fmt.Errorf("schemanet: %w", err)
		}
		if err := s.pmn.AssertBatch(batch); err != nil {
			return fmt.Errorf("schemanet: replaying session history: %w", err)
		}
		s.logOps(pending...)
		pending = pending[:0]
		return nil
	}
	for j, rec := range log {
		i := base + j
		if rec.Kind == wal.KindAssert {
			pending = append(pending, rec)
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		var err error
		switch rec.Kind {
		case wal.KindAddSchema:
			err = s.AddSchema(rec.Schema, rec.Attrs...)
		case wal.KindAddCandidates:
			var cs []Correspondence
			if cs, err = resolveCands(s.attrNames(), i, rec.Cands); err != nil {
				return fmt.Errorf("schemanet: %w", err)
			}
			err = s.AddCandidates(cs)
		case wal.KindRetire:
			cur := s.Network()
			names := s.attrNames()
			a, oka := names[rec.From]
			b, okb := names[rec.To]
			if !oka || !okb {
				return fmt.Errorf("schemanet: session op %d: unknown attribute in retire %q ↔ %q", i, rec.From, rec.To)
			}
			c := cur.CandidateIndex(a, b)
			if c < 0 {
				return fmt.Errorf("schemanet: session op %d: retire target %s ↔ %s is not a live candidate", i, rec.From, rec.To)
			}
			err = s.RetireCandidate(c)
		default:
			return fmt.Errorf("schemanet: session op %d: unknown kind %d", i, rec.Kind)
		}
		if err != nil {
			return fmt.Errorf("schemanet: session op %d: %w", i, err)
		}
	}
	return flush()
}

// LoadSession builds a fresh session for net and replays the feedback
// previously written by Save. The network must contain every asserted
// correspondence (same or compatible candidate set).
//
// The saved history is not replayed assertion by assertion: it becomes
// the new session's initial feedback, and every constraint-connected
// component is built under it directly — an enumerated piece lists
// the instances consistent with the history, a sampled one draws its
// initial samples seeded from the approvals and excluding the
// disapprovals (Algorithm 3). No resampling round is paid and nothing
// is filtered away. Enumerated pieces come out bit-identical to the
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
// session match the saved one even when a component turned exact
// mid-session rather than at restore time. Under Options.Inference = "exact" with
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
//
// net is read, never written, and its compiled copy is shared with
// every NewSession and LoadSession on the same *Network under the same
// constraint options: a reload compiles nothing when a session on net
// compiled it already. A file with topology records gives the session
// a network of its own at its first such record, and every topology
// record compiles Γ once for the changed network (see NewSession).
func LoadSession(net *Network, opts *Options, r io.Reader) (*Session, error) {
	log, _, err := decodeSession(r)
	if err != nil {
		return nil, err
	}
	return replaySessionOps(net, opts, log)
}
