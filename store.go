package schemanet

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"schemanet/internal/wal"
)

// AssertionRecord is one durably logged assertion: who asserted which
// correspondence (by attribute full names), in which direction, and
// its position in the session's monotonic sequence. See internal/wal.
type AssertionRecord = wal.Record

// ErrStoreClosed reports an operation on a closed SessionStore (or a
// DurableSession handle whose store has been closed).
var ErrStoreClosed = errors.New("schemanet: session store closed")

// ErrSessionBusy reports an explicit Evict of a session that is
// mid-operation; retry once its callers finish.
var ErrSessionBusy = errors.New("schemanet: session busy")

const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"

	// DefaultMaxOpen bounds the resident session pool when
	// StoreOptions.MaxOpen is zero.
	DefaultMaxOpen = 16
	// DefaultSnapshotEvery is the auto-compaction threshold (WAL
	// records since the last snapshot) when StoreOptions.SnapshotEvery
	// is zero.
	DefaultSnapshotEvery = 1024
)

// StoreOptions configures a SessionStore. The zero value selects a
// 16-session resident pool, one fsync per assert/batch ("batch"
// policy), and compaction every 1024 WAL records.
type StoreOptions struct {
	// Session configures every session the store opens (inference
	// mode, samples, seed, …). Use the same value across store
	// generations: recovery replays history under these options.
	Session *Options
	// MaxOpen bounds how many sessions stay resident in memory; the
	// least-recently-used idle session beyond it is compacted to disk
	// and evicted, and reopens transparently on next access. Sessions
	// with operations in flight are never evicted, so the bound can be
	// exceeded transiently under load. 0 means DefaultMaxOpen.
	MaxOpen int
	// Sync is the WAL sync policy: "always" (fsync per assertion),
	// "batch" or "" (fsync per Assert/AssertBatch call, the default),
	// or "none" (fsync only at snapshot, eviction, and close — a crash
	// may lose a suffix of acknowledged assertions, never a middle
	// slice).
	Sync string
	// SnapshotEvery compacts a session (snapshot + WAL truncation)
	// once this many records accumulate in its WAL, keeping recovery
	// cost bounded as history grows. 0 means DefaultSnapshotEvery.
	SnapshotEvery int
	// Logf receives recovery and eviction warnings (torn WAL tails
	// dropped, compaction deferrals). Defaults to log.Printf.
	Logf func(format string, args ...any)
	// FS overrides the filesystem — the fault-injection seam the crash
	// tests use. nil means the real filesystem.
	FS wal.FS
}

// SessionStore hosts many named durable reconciliation sessions over
// one network — the durability half of a reconciliation service. Each
// session owns a directory under the store root:
//
//	<root>/<name>/wal.log       append-only assertion WAL
//	<root>/<name>/snapshot.json session state at sequence N (atomic)
//
// Every Assert/AssertBatch on a session appends CRC-framed records to
// its WAL (fsynced per the Sync policy) after applying them in memory;
// periodic compaction writes a snapshot covering the whole history and
// truncates the WAL, so reopening a long-lived session replays one
// snapshot plus a short log tail. Recovery is torn-write tolerant: a
// truncated or corrupt WAL tail is detected by the CRC/length framing,
// dropped with a logged warning, and everything before it replays
// through the batch LoadSession path — at most one resampling round
// per touched component. A session recovered after a crash is
// bit-identical (under exact inference) to one that never crashed.
//
// The store keeps at most MaxOpen sessions resident; idle sessions
// beyond that are compacted and evicted, and any access through their
// DurableSession handles reopens them transparently. All methods are
// safe for concurrent use.
type SessionStore struct {
	net       *Network
	dir       string
	fs        wal.FS
	sopts     *Options
	policy    wal.SyncPolicy
	maxOpen   int
	snapEvery int
	logf      func(format string, args ...any)

	mu     sync.Mutex
	open   map[string]*liveSession
	clock  uint64
	closed bool
}

// liveSession is one resident session: the in-memory ConcurrentSession
// plus its WAL handle; the session's own operation log is the full
// logical history. walMu serializes every mutation — the in-memory
// apply (which appends to that log), the WAL append, and compaction —
// so the log is read under walMu; other reads go straight to the
// ConcurrentSession's lock-free snapshots. Lock order: SessionStore.mu
// may be held while taking walMu, never the reverse.
type liveSession struct {
	store *SessionStore
	name  string
	dir   string
	cs    *ConcurrentSession

	walMu     sync.Mutex
	wal       *wal.Log
	snapCount int  // prefix of the session's log covered by the on-disk snapshot
	broken    bool // a WAL append failed; heal (compact) before appending more
	retired   bool // files closed; entry no longer usable

	refs    int    // in-flight operations, guarded by store.mu
	lastUse uint64 // LRU stamp, guarded by store.mu
}

// OpenStore opens (creating if needed) a session store rooted at dir
// for net. Sessions are loaded lazily on first access.
//
// net is every session's base network. The store reads it and never
// writes it: its sessions, and every reopen after an eviction, share
// the one compiled copy NewSession keeps for net under the store's
// Session options, and a session takes a copy of its own on its first
// topology op (see NewSession). Growing net in place while the store is
// open makes later reopens replay against the grown network, so keep it
// unchanged for the store's life.
func OpenStore(dir string, net *Network, opts *StoreOptions) (*SessionStore, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	if net == nil || net.NumCandidates() == 0 {
		return nil, fmt.Errorf("schemanet: store: network has no candidate correspondences")
	}
	if o.MaxOpen < 0 || o.SnapshotEvery < 0 {
		return nil, fmt.Errorf("schemanet: store: MaxOpen and SnapshotEvery must be non-negative")
	}
	policy, err := wal.ParsePolicy(o.Sync)
	if err != nil {
		return nil, fmt.Errorf("schemanet: store: %w", err)
	}
	st := &SessionStore{
		net:       net,
		dir:       dir,
		fs:        o.FS,
		sopts:     o.Session,
		policy:    policy,
		maxOpen:   o.MaxOpen,
		snapEvery: o.SnapshotEvery,
		logf:      o.Logf,
		open:      make(map[string]*liveSession),
	}
	if st.fs == nil {
		st.fs = wal.OS()
	}
	if st.maxOpen == 0 {
		st.maxOpen = DefaultMaxOpen
	}
	if st.snapEvery == 0 {
		st.snapEvery = DefaultSnapshotEvery
	}
	if st.logf == nil {
		st.logf = log.Printf
	}
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("schemanet: store: creating %s: %w", dir, err)
	}
	return st, nil
}

// validSessionName rejects names that would escape the store root or
// collide with the store's own files.
func validSessionName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("schemanet: store: invalid session name %q", name)
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("schemanet: store: invalid session name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("schemanet: store: invalid session name %q (want [A-Za-z0-9._-]+)", name)
		}
	}
	return nil
}

// Session returns a handle on the named session, creating its
// directory on first use or recovering it from snapshot + WAL. The
// handle stays valid across evictions: an evicted session reopens
// transparently on the handle's next call.
func (st *SessionStore) Session(name string) (*DurableSession, error) {
	ls, err := st.acquire(name)
	if err != nil {
		return nil, err
	}
	st.release(ls)
	return &DurableSession{store: st, name: name}, nil
}

// Resident returns how many sessions are currently held in memory.
func (st *SessionStore) Resident() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.open)
}

// Evict compacts the named session to disk and drops it from the
// resident pool. A session that is not resident is a no-op; a session
// with operations in flight returns ErrSessionBusy. Handles keep
// working — the next access reopens from disk.
func (st *SessionStore) Evict(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrStoreClosed
	}
	ls, ok := st.open[name]
	if !ok {
		return nil
	}
	if ls.refs > 0 {
		return fmt.Errorf("%w: %q has %d operation(s) in flight", ErrSessionBusy, name, ls.refs)
	}
	if err := ls.retire(); err != nil {
		return err
	}
	delete(st.open, name)
	return nil
}

// Close compacts and closes every resident session and shuts the store
// down; subsequent operations (including through existing handles)
// return ErrStoreClosed. Closing a closed store is a no-op. Operations
// in flight finish first — Close blocks on each session's write lock.
func (st *SessionStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var first error
	for name, ls := range st.open {
		if err := ls.retire(); err != nil && first == nil {
			first = fmt.Errorf("schemanet: store: closing session %q: %w", name, err)
		}
		delete(st.open, name)
	}
	return first
}

// acquire pins the named session resident (opening or recovering it if
// needed), bumps its LRU stamp, and returns it with a reference held.
func (st *SessionStore) acquire(name string) (*liveSession, error) {
	if err := validSessionName(name); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrStoreClosed
	}
	ls, ok := st.open[name]
	if !ok {
		var err error
		ls, err = st.openLocked(name)
		if err != nil {
			return nil, err
		}
		st.open[name] = ls
	}
	ls.refs++
	st.clock++
	ls.lastUse = st.clock
	st.evictLocked()
	return ls, nil
}

func (st *SessionStore) release(ls *liveSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ls.refs--
}

// evictLocked enforces the pool bound: while too many sessions are
// resident, the least-recently-used idle one is compacted and dropped.
// Sessions that refuse to retire safely are skipped (and retried on
// later acquires).
func (st *SessionStore) evictLocked() {
	var skip map[*liveSession]bool
	for len(st.open) > st.maxOpen {
		var victim *liveSession
		for _, ls := range st.open {
			if ls.refs > 0 || skip[ls] {
				continue
			}
			if victim == nil || ls.lastUse < victim.lastUse {
				victim = ls
			}
		}
		if victim == nil {
			return
		}
		if err := victim.retire(); err != nil {
			st.logf("schemanet: store: session %q: eviction deferred: %v", victim.name, err)
			if skip == nil {
				skip = make(map[*liveSession]bool)
			}
			skip[victim] = true
			continue
		}
		delete(st.open, victim.name)
	}
}

// openLocked loads (or creates) a session from its directory:
// snapshot, then WAL tail, replayed in one batch. Called with store.mu
// held — recovery cost is bounded by compaction, but it does serialize
// against other opens.
func (st *SessionStore) openLocked(name string) (*liveSession, error) {
	dir := filepath.Join(st.dir, name)
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("schemanet: store: creating %s: %w", dir, err)
	}
	// Crash hygiene: half-written temporaries from a previous life.
	_ = st.fs.Remove(filepath.Join(dir, snapshotFile+".tmp"))
	_ = st.fs.Remove(filepath.Join(dir, walFile+".tmp"))

	// Snapshot, if any. Its Seq is the WAL sequence number it covers; a
	// plain Session.Save dropped in as snapshot.json (Seq 0) counts as
	// covering its own history — the supported migration path.
	var recs []wal.Record
	snapSeq := uint64(0)
	data, err := st.fs.ReadFile(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		var derr error
		if recs, snapSeq, derr = decodeSession(bytes.NewReader(data)); derr != nil {
			return nil, fmt.Errorf("schemanet: store: session %q: corrupt snapshot: %w", name, derr)
		}
		if snapSeq != uint64(len(recs)) {
			return nil, fmt.Errorf("schemanet: store: session %q: snapshot covers seq %d but holds %d entries",
				name, snapSeq, len(recs))
		}
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("schemanet: store: session %q: reading snapshot: %w", name, err)
	}

	l, walRecs, res, err := wal.Open(st.fs, dir, filepath.Join(dir, walFile), st.policy)
	if err != nil {
		return nil, fmt.Errorf("schemanet: store: session %q: %w", name, err)
	}
	if !res.Clean() {
		st.logf("schemanet: store: session %q: recovered WAL with damaged tail: %v", name, res.Tail)
	}

	// Stitch: snapshot prefix (seqs 1..snapSeq), then WAL records above
	// it, in strict sequence. Records the snapshot already covers are
	// dropped (a crash between snapshot write and WAL truncation leaves
	// that overlap); a sequence gap means records that were never
	// acknowledged durable — everything from the gap on is dropped.
	dirty := false // on-disk state needs a normalizing compaction
	for i, r := range walRecs {
		if r.Seq <= snapSeq {
			dirty = true
			continue
		}
		if r.Seq != uint64(len(recs))+1 {
			st.logf("schemanet: store: session %q: dropping %d WAL record(s) after sequence gap (%d after %d) — never acknowledged durable",
				name, len(walRecs)-i, r.Seq, uint64(len(recs)))
			dirty = true
			break
		}
		recs = append(recs, r)
	}

	s, err := replaySessionOps(st.net, st.sopts, recs)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("schemanet: store: session %q: %w", name, err)
	}
	l.SetLastSeq(snapSeq)
	ls := &liveSession{
		store: st, name: name, dir: dir,
		cs: s.Concurrent(), wal: l, snapCount: int(snapSeq),
	}
	if dirty {
		// Normalize now: snapshot the stitched history and truncate the
		// WAL, so overlap/gap leftovers don't survive into the next
		// generation. On failure, gate appends until a compaction lands.
		if err := ls.compactLocked(); err != nil {
			st.logf("schemanet: store: session %q: deferred cleanup compaction: %v", name, err)
			ls.broken = true
		}
	}
	return ls, nil
}

// healLocked is the gate after a failed WAL append: no further records
// may be appended (they would land after torn bytes or a sequence gap
// and be unrecoverable) until a compaction has re-established a clean
// snapshot + empty WAL.
func (ls *liveSession) healLocked() error {
	if !ls.broken {
		return nil
	}
	if err := ls.compactLocked(); err != nil {
		return fmt.Errorf("schemanet: store: session %q: durability degraded (earlier append failed) and compaction still failing: %w",
			ls.name, err)
	}
	ls.broken = false
	return nil
}

// loggable is the guard every durable write on candidate c passes
// before it is applied: c is in the universe, live, and resolves back
// by name, so recovery can replay the record.
func (ls *liveSession) loggable(c int) error {
	if err := ls.cs.s.checkCandidate(c); err != nil {
		return err
	}
	net := ls.cs.s.Network()
	if net.Retired(c) {
		return fmt.Errorf("schemanet: candidate %d: %w", c, ErrCandidateRetired)
	}
	if err := resolvesBack(net, ls.cs.s.attrNames(), c); err != nil {
		return fmt.Errorf("schemanet: store: session %q: %w; refusing unrecoverable record", ls.name, err)
	}
	return nil
}

func (ls *liveSession) maybeCompactLocked() {
	if len(ls.cs.s.log)-ls.snapCount < ls.store.snapEvery {
		return
	}
	// The triggering assertion is already durable in the WAL; a failed
	// compaction costs recovery time, not data.
	if err := ls.compactLocked(); err != nil {
		ls.store.logf("schemanet: store: session %q: auto-compaction failed: %v", ls.name, err)
	}
}

// compactLocked writes a snapshot covering the entire history —
// write-sync-rename-syncdir, so a crash leaves either the old or the
// new snapshot — and only then truncates the WAL. A crash between the
// two steps leaves the snapshot plus a fully-covered WAL; recovery
// drops the overlap by sequence number. No committed assertion is ever
// lost.
func (ls *liveSession) compactLocked() error {
	log := ls.cs.s.log
	buf, err := encodeSession(log, ls.cs.s.Network().NumCandidates(), uint64(len(log)))
	if err != nil {
		return err
	}
	if err := wal.AtomicWriteFile(ls.store.fs, ls.dir, filepath.Join(ls.dir, snapshotFile), buf); err != nil {
		return fmt.Errorf("schemanet: store: session %q: writing snapshot: %w", ls.name, err)
	}
	ls.snapCount = len(log)
	if err := ls.wal.Reset(uint64(len(log))); err != nil {
		// Snapshot is durable; the stale WAL only costs recovery a
		// dedup pass. Appends will fail until a Reset lands, tripping
		// the heal gate.
		return fmt.Errorf("schemanet: store: session %q: truncating WAL after snapshot: %w", ls.name, err)
	}
	return nil
}

// retire compacts the session and closes its files — eviction and
// shutdown. It refuses only when closing now would lose state: memory
// holds records the WAL never accepted and compaction still fails, or
// the WAL cannot be flushed. Called with store.mu held.
func (ls *liveSession) retire() error {
	ls.walMu.Lock()
	defer ls.walMu.Unlock()
	if ls.retired {
		return nil
	}
	if ls.broken {
		if err := ls.healLocked(); err != nil {
			return err
		}
	} else if err := ls.compactLocked(); err != nil {
		// Everything acknowledged is in the WAL; make sure it is
		// physically down before letting go of the memory copy.
		if serr := ls.wal.Sync(); serr != nil {
			return fmt.Errorf("schemanet: store: session %q: cannot retire safely: compaction failed (%v) and WAL sync failed: %w",
				ls.name, err, serr)
		}
		ls.store.logf("schemanet: store: session %q: retiring with stale snapshot (compaction failed: %v); WAL is synced", ls.name, err)
	}
	if err := ls.wal.Close(); err != nil {
		ls.store.logf("schemanet: store: session %q: closing WAL: %v", ls.name, err)
	}
	ls.retired = true
	return nil
}

// DurableSession is a handle on one named session in a SessionStore:
// a ConcurrentSession whose assertions are durably logged. Reads
// (Probability, Uncertainty, Suggest, …) are served lock-free from the
// resident session's published snapshots; writes apply in memory first
// and then append to the session's WAL, serialized per session — the
// WAL is a single append stream, so unlike a bare ConcurrentSession,
// two writes to the same durable session do not proceed in parallel
// even on disjoint components (batches still fan out internally).
// An Assert/AssertBatch that returns nil is durable to the degree the
// store's Sync policy promises.
//
// Handles are cheap, stateless, and safe for concurrent use; they
// survive eviction (the session transparently reopens from disk) and
// fail with ErrStoreClosed once the store is closed.
type DurableSession struct {
	store *SessionStore
	name  string
}

// Name returns the session's store name.
func (ds *DurableSession) Name() string { return ds.name }

// Network returns the session's network — the store's base network plus
// any schemas and candidates this session added. It must not be
// mutated: until the session's first topology op it is the compiled
// copy of the base network every session of the store shares, and that
// op gives the session a copy of its own (see Session.Network). When
// the session cannot be reopened (a closed store, an unreadable
// directory) it falls back to the store's base network.
func (ds *DurableSession) Network() *Network {
	net := ds.store.net
	_ = ds.with(func(ls *liveSession) error {
		net = ls.cs.Network()
		return nil
	})
	return net
}

// with pins the session resident, runs fn, and releases.
func (ds *DurableSession) with(fn func(*liveSession) error) error {
	ls, err := ds.store.acquire(ds.name)
	if err != nil {
		return err
	}
	defer ds.store.release(ls)
	return fn(ls)
}

// write is the one durable write path. On the resident session, under
// walMu, it refuses a retired entry and heals a broken WAL, runs apply
// — which guards and then mutates the in-memory session — and appends
// to the WAL exactly the records apply added to the session's log. A
// failed append leaves the mutation live in memory and trips the heal
// gate, so the next successful compaction persists it.
func (ds *DurableSession) write(what string, apply func(*liveSession) error) error {
	return ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		if ls.retired {
			return ErrStoreClosed
		}
		if err := ls.healLocked(); err != nil {
			return err
		}
		n := len(ls.cs.s.log)
		if err := apply(ls); err != nil {
			return err
		}
		if err := ls.wal.Append(ls.cs.s.log[n:]...); err != nil {
			ls.broken = true
			return fmt.Errorf("schemanet: store: session %q: %s applied but not durably logged (will persist via next successful compaction): %w",
				ls.name, what, err)
		}
		ls.maybeCompactLocked()
		return nil
	})
}

// Assert durably integrates an expert statement about candidate c,
// with no annotator attribution. See AssertAs.
func (ds *DurableSession) Assert(c int, correct bool) error {
	return ds.AssertAs("", c, correct)
}

// AssertAs durably integrates annotator's statement about candidate c:
// applied to the in-memory session, appended to the WAL, fsynced per
// the store's Sync policy, in that order — an error after the words
// "applied but not durably logged" means the assertion is live in
// memory and will be persisted by the next successful compaction. The
// annotator id is recorded in the durable history (the per-annotator
// assertion log quality-aware matching learns from) and does not
// affect inference.
func (ds *DurableSession) AssertAs(annotator string, c int, correct bool) error {
	return ds.write("assertion", func(ls *liveSession) error {
		if err := ls.loggable(c); err != nil {
			return err
		}
		return ls.cs.assertAs(annotator, c, correct)
	})
}

// AssertBatch durably integrates many assertions at once with no
// annotator attribution; see AssertBatchAs.
func (ds *DurableSession) AssertBatch(as []Assertion) error {
	return ds.AssertBatchAs("", as)
}

// AssertBatchAs durably integrates a batch from one annotator:
// validated and applied atomically in memory (a bad entry rejects the
// whole batch with no state change and nothing logged), then appended
// to the WAL as consecutive records — one fsync for the whole batch
// under the default "batch" policy.
func (ds *DurableSession) AssertBatchAs(annotator string, as []Assertion) error {
	if len(as) == 0 {
		return nil
	}
	return ds.write("batch", func(ls *liveSession) error {
		for i, a := range as {
			if err := ls.loggable(a.Cand); err != nil {
				return fmt.Errorf("assertion %d: %w", i, err)
			}
		}
		return ls.cs.assertBatchAs(annotator, as)
	})
}

// AddSchema registers a new schema on the durable session (see
// Session.AddSchema): applied to the in-memory session, then appended
// to the WAL as a topology record, so recovery re-grows the network at
// exactly this point of the history.
func (ds *DurableSession) AddSchema(name string, attrs ...string) error {
	return ds.write("topology change", func(ls *liveSession) error {
		return ls.cs.AddSchema(name, attrs...)
	})
}

// AddCandidates appends candidate correspondences to the durable
// session (see Session.AddCandidates), durably logged as one topology
// record.
func (ds *DurableSession) AddCandidates(correspondences []Correspondence) error {
	return ds.write("topology change", func(ls *liveSession) error {
		return ls.cs.AddCandidates(correspondences)
	})
}

// RetireCandidate withdraws candidate c from the durable session (see
// Session.RetireCandidate), durably logged as a topology record.
func (ds *DurableSession) RetireCandidate(c int) error {
	return ds.write("topology change", func(ls *liveSession) error {
		if err := ls.loggable(c); err != nil {
			return err
		}
		return ls.cs.RetireCandidate(c)
	})
}

// Suggest returns the most informative unasserted candidate, from the
// resident session's published snapshots. ok is false when every
// candidate has been asserted, and also when the session cannot be
// reopened (a closed store, an unreadable directory).
func (ds *DurableSession) Suggest() (c int, ok bool) {
	var gc int
	var gok bool
	if err := ds.with(func(ls *liveSession) error {
		gc, gok = ls.cs.Suggest()
		return nil
	}); err != nil {
		return 0, false
	}
	return gc, gok
}

// Probability returns the current probability of candidate c.
func (ds *DurableSession) Probability(c int) (float64, error) {
	var p float64
	err := ds.with(func(ls *liveSession) error {
		var err error
		p, err = ls.cs.Probability(c)
		return err
	})
	return p, err
}

// Uncertainty returns the network uncertainty H(C, P) (Equation 3).
func (ds *DurableSession) Uncertainty() (float64, error) {
	var h float64
	err := ds.with(func(ls *liveSession) error {
		h = ls.cs.Uncertainty()
		return nil
	})
	return h, err
}

// Effort returns the fraction of candidates asserted so far.
func (ds *DurableSession) Effort() (float64, error) {
	var e float64
	err := ds.with(func(ls *liveSession) error {
		e = ls.cs.Effort()
		return nil
	})
	return e, err
}

// Describe renders candidate c (a placeholder when out of universe).
func (ds *DurableSession) Describe(c int) string {
	out := fmt.Sprintf("<unknown candidate %d>", c)
	_ = ds.with(func(ls *liveSession) error {
		out = ls.cs.Describe(c)
		return nil
	})
	return out
}

// Violations returns the number of distinct constraint violations
// among the raw candidate correspondences.
func (ds *DurableSession) Violations() (int, error) {
	var v int
	err := ds.with(func(ls *liveSession) error {
		v = ls.cs.Violations()
		return nil
	})
	return v, err
}

// Instantiate derives a trusted matching from the current state.
func (ds *DurableSession) Instantiate() (*Matching, error) {
	var m *Matching
	err := ds.with(func(ls *liveSession) error {
		m = ls.cs.Instantiate()
		return nil
	})
	return m, err
}

// History returns the session's durable history in order — assertions
// with their annotators (the per-annotator audit log) interleaved with
// its topology records, Seq = position. The slice is a copy of the
// session's operation log.
func (ds *DurableSession) History() ([]AssertionRecord, error) {
	var out []AssertionRecord
	err := ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		out = append(out, ls.cs.s.log...)
		return nil
	})
	return out, err
}

// Seq returns the sequence number of the last recorded operation (0
// for a fresh session).
func (ds *DurableSession) Seq() (uint64, error) {
	var seq uint64
	err := ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		seq = uint64(len(ls.cs.s.log))
		return nil
	})
	return seq, err
}

// Compact snapshots the session now and truncates its WAL.
func (ds *DurableSession) Compact() error {
	return ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		if ls.retired {
			return ErrStoreClosed
		}
		if err := ls.compactLocked(); err != nil {
			return err
		}
		ls.broken = false
		return nil
	})
}

// Sync forces the session's WAL to disk — the manual durability point
// under the "none" policy.
func (ds *DurableSession) Sync() error {
	return ds.with(func(ls *liveSession) error {
		ls.walMu.Lock()
		defer ls.walMu.Unlock()
		if ls.retired {
			return ErrStoreClosed
		}
		return ls.wal.Sync()
	})
}
