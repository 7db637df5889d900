package schemanet_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// logCapture collects store warnings for assertions about recovery.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) contains(frag string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, frag) {
			return true
		}
	}
	return false
}

func TestStoreBasicDurability(t *testing.T) {
	net, truth := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 11}
	fsys := wal.NewMemFS()
	sopts := &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: t.Logf}

	st, err := schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	// Drive with a reference session so we can compare probabilities.
	ref, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	var asserted []int
	for i := 0; i < 3; i++ {
		c, ok := ref.Suggest()
		if !ok {
			break
		}
		ok = truth.ContainsCorrespondence(net.Candidate(c))
		if err := ref.Assert(c, ok); err != nil {
			t.Fatal(err)
		}
		if err := ds.AssertAs("expert", c, ok); err != nil {
			t.Fatal(err)
		}
		asserted = append(asserted, c)
	}
	if seq, err := ds.Seq(); err != nil || seq != uint64(len(asserted)) {
		t.Fatalf("Seq() = %d, %v; want %d", seq, err, len(asserted))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Handles die with the store.
	if _, err := ds.Probability(0); !errors.Is(err, schemanet.ErrStoreClosed) {
		t.Fatalf("after Close, Probability err = %v, want ErrStoreClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Reopen: bit-identical probabilities under exact inference.
	st2, err := schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := st2.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, ds2, c), mustProb(t, ref, c); got != want {
			t.Fatalf("recovered p(%d) = %v, want %v (bit-identical)", c, got, want)
		}
	}
	hist, err := ds2.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != len(asserted) {
		t.Fatalf("recovered %d history records, want %d", len(hist), len(asserted))
	}
	for i, r := range hist {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Annotator != "expert" {
			t.Fatalf("record %d lost annotator: %+v", i, r)
		}
		cand := net.Candidate(asserted[i])
		if r.From != net.FullName(cand.A) || r.To != net.FullName(cand.B) {
			t.Fatalf("record %d is %s ↔ %s, want candidate %d", i, r.From, r.To, asserted[i])
		}
	}
}

// storeScenario is the fixed workload the exhaustive crash sweep
// replays: the session's creation, single asserts, an eviction and the
// reopen from disk mid-script, a batch, a rejected duplicate, and a
// store close — so the sweep's crash points land inside every step of
// the protocol. It returns how many assertions were acknowledged (their
// calls returned nil) before the first failure.
func storeScenario(net *schemanet.Network, opts *schemanet.Options, fsys *wal.MemFS, logf func(string, ...any)) int {
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: logf})
	if err != nil {
		return 0
	}
	defer st.Close()
	ds, err := st.Session("alpha")
	if err != nil {
		return 0
	}
	if ds.AssertAs("ann1", 0, true) != nil {
		return 0
	}
	if ds.AssertAs("ann2", 1, false) != nil {
		return 1
	}
	evict := func() bool { // sync and close the WAL, then reopen from it
		if st.Evict("alpha") != nil {
			return false
		}
		_, err := st.Session("alpha")
		return err == nil
	}
	if !evict() {
		return 2
	}
	if ds.AssertAs("ann1", 2, true) != nil {
		return 2
	}
	if ds.AssertBatchAs("crowd", []schemanet.Assertion{{Cand: 3, Approved: true}, {Cand: 4, Approved: false}}) != nil {
		return 3
	}
	if !evict() {
		return 5
	}
	if ds.AssertAs("ann2", 5, true) != nil {
		return 5
	}
	if ds.AssertBatchAs("crowd", []schemanet.Assertion{{Cand: 6, Approved: false}, {Cand: 7, Approved: true}}) != nil {
		return 6
	}
	if ds.AssertAs("ann1", 8, true) != nil {
		return 8
	}
	if ds.AssertAs("ann2", 9, false) != nil {
		return 9
	}
	_ = ds.Assert(1, false) // duplicate: rejected, not logged
	_ = st.Close()
	return 10
}

// intendedRecords is the full assertion sequence storeScenario commits,
// in order, as it must appear in a recovered history.
func intendedRecords(net *schemanet.Network) []schemanet.AssertionRecord {
	mk := func(seq uint64, ann string, c int, ok bool) schemanet.AssertionRecord {
		cand := net.Candidate(c)
		return schemanet.AssertionRecord{
			Seq: seq, Annotator: ann,
			From: net.FullName(cand.A), To: net.FullName(cand.B), Approved: ok,
		}
	}
	return []schemanet.AssertionRecord{
		mk(1, "ann1", 0, true),
		mk(2, "ann2", 1, false),
		mk(3, "ann1", 2, true),
		mk(4, "crowd", 3, true),
		mk(5, "crowd", 4, false),
		mk(6, "ann2", 5, true),
		mk(7, "crowd", 6, false),
		mk(8, "crowd", 7, true),
		mk(9, "ann1", 8, true),
		mk(10, "ann2", 9, false),
	}
}

// TestStoreCrashAtEveryOp is the headline robustness property: crash
// the filesystem at every single mutating operation of a workload that
// spans creation, appends, eviction, reopen, and shutdown;
// after each crash, recovery must yield an exact prefix of the
// committed assertion sequence, containing every acknowledged
// assertion (no committed assertion is ever lost), replaying to
// probabilities bit-identical to a never-crashed session.
func TestStoreCrashAtEveryOp(t *testing.T) {
	net, _ := multiVideoNet(t, 2) // two components of 5 candidates
	opts := &schemanet.Options{Inference: "exact", Seed: 5}
	intended := intendedRecords(net)
	// Candidate index per intended record, for the replay check.
	intendedCands := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	intendedOK := []bool{true, false, true, true, false, true, false, true, true, false}

	// Size the sweep with one uncrashed run.
	clean := wal.NewMemFS()
	if got := storeScenario(net, opts, clean, t.Logf); got != len(intended) {
		t.Fatalf("uncrashed scenario acked %d assertions, want %d", got, len(intended))
	}
	total := clean.Ops()
	if total < 30 {
		t.Fatalf("scenario runs only %d mutating ops; crash sweep would be trivial", total)
	}
	discard := func(string, ...any) {}

	for k := 0; k < total; k++ {
		fsys := wal.NewMemFS()
		fsys.CrashAfterOps(k)
		acked := storeScenario(net, opts, fsys, discard)
		if !fsys.Crashed() {
			t.Fatalf("crash point %d/%d never hit", k, total)
		}
		fsys.Restart()

		st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
			Session: opts, FS: fsys, Logf: discard,
		})
		if err != nil {
			t.Fatalf("crash@%d: reopening store: %v", k, err)
		}
		ds, err := st.Session("alpha")
		if err != nil {
			t.Fatalf("crash@%d: recovering session: %v", k, err)
		}
		hist, err := ds.History()
		if err != nil {
			t.Fatalf("crash@%d: history: %v", k, err)
		}
		// Exact prefix of the committed sequence…
		if len(hist) > len(intended) {
			t.Fatalf("crash@%d: recovered %d records, more than ever asserted", k, len(hist))
		}
		for i, r := range hist {
			if !reflect.DeepEqual(r, intended[i]) {
				t.Fatalf("crash@%d: record %d = %+v, want %+v", k, i, r, intended[i])
			}
		}
		// …containing everything that was acknowledged.
		if len(hist) < acked {
			t.Fatalf("crash@%d: LOST COMMITTED ASSERTIONS: %d acknowledged, %d recovered", k, acked, len(hist))
		}
		// …replaying to bit-identical exact probabilities.
		ref, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(hist); i++ {
			if err := ref.Assert(intendedCands[i], intendedOK[i]); err != nil {
				t.Fatalf("crash@%d: reference replay: %v", k, err)
			}
		}
		for c := 0; c < net.NumCandidates(); c++ {
			if got, want := mustProb(t, ds, c), mustProb(t, ref, c); got != want {
				t.Fatalf("crash@%d: recovered p(%d) = %v, want %v", k, c, got, want)
			}
		}
		// The recovered session must accept further work and survive a
		// clean close.
		if len(hist) < len(intended) {
			if err := ds.AssertAs("post", intendedCands[len(hist)], intendedOK[len(hist)]); err != nil {
				t.Fatalf("crash@%d: recovered session rejects new assertion: %v", k, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("crash@%d: closing recovered store: %v", k, err)
		}
	}
}

// TestStoreFailedSyncSelfHeals: a WAL fsync failure degrades the
// session (the assert reports the durability gap) but loses nothing —
// the record stays live in memory, and the next write first heals the
// log by rewriting it from memory, which persists it.
func TestStoreFailedSyncSelfHeals(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	fsys := wal.NewMemFS()
	lc := &logCapture{}
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Assert(0, true); err != nil {
		t.Fatal(err)
	}

	// Fail exactly one fsync of the WAL file.
	failed := false
	fsys.SetHook(func(op, name string, n int) error {
		if !failed && op == "sync" && filepath.Base(name) == "wal.log" {
			failed = true
			return errors.New("injected: disk on fire")
		}
		return nil
	})
	err = ds.Assert(1, false)
	fsys.SetHook(nil)
	if err == nil || !strings.Contains(err.Error(), "not durably logged") {
		t.Fatalf("assert with failed sync: err = %v, want durability error", err)
	}
	if !failed {
		t.Fatal("hook never fired")
	}
	// The assertion is live in memory…
	if p, err := ds.Probability(1); err != nil || p != 0 {
		t.Fatalf("disapproved candidate p = %v, %v; want 0 (assertion applied in memory)", p, err)
	}
	// …and the next write heals the log, persisting it.
	if err := ds.Assert(2, true); err != nil {
		t.Fatalf("assert after heal: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := st2.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := ds2.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("recovered %d records, want 3 (sync-failed record must be persisted by healing)", len(hist))
	}
	if !hist[1].Approved == false && hist[1].Seq == 2 {
		t.Fatalf("record 2 mangled: %+v", hist[1])
	}
}

// TestStoreRetireRewritesAfterFailedSync: eviction never drops memory
// it cannot prove durable. When the closing sync of the WAL fails, the
// eviction rewrites the WAL from memory instead; when that fails too,
// it refuses and the session stays resident, gated to heal before its
// next write. A crash after each successful eviction loses nothing.
func TestStoreRetireRewritesAfterFailedSync(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	fsys := wal.NewMemFS()
	sopts := &schemanet.StoreOptions{Session: opts, FS: fsys, Sync: "none", Logf: t.Logf}
	st, err := schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	crashAndCount := func() uint64 {
		t.Helper()
		fsys.Crash()
		fsys.Restart()
		st2, err := schemanet.OpenStore("store", net, sopts)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		ds2, err := st2.Session("alpha")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ds2.Seq()
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	walSync := func(op, name string) bool { return op == "sync" && filepath.Base(name) == "wal.log" }
	for c := 0; c < 2; c++ {
		if err := ds.Assert(c, c == 0); err != nil {
			t.Fatal(err)
		}
	}

	// One failed closing sync: the eviction rewrites the WAL and succeeds.
	failed := false
	fsys.SetHook(func(op, name string, n int) error {
		if !failed && walSync(op, name) {
			failed = true
			return errors.New("injected: sync failed")
		}
		return nil
	})
	if err := st.Evict("alpha"); err != nil {
		t.Fatalf("evict after one failed sync: %v", err)
	}
	fsys.SetHook(nil)
	if !failed {
		t.Fatal("hook never fired")
	}
	if seq := crashAndCount(); seq != 2 {
		t.Fatalf("after the rewritten eviction and a crash: seq %d, want 2", seq)
	}

	// Syncs and renames both failing: the eviction refuses.
	st, err = schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err = st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Assert(2, true); err != nil {
		t.Fatal(err)
	}
	fsys.SetHook(func(op, name string, n int) error {
		if walSync(op, name) || op == "rename" {
			return errors.New("injected: disk on fire")
		}
		return nil
	})
	if err := st.Evict("alpha"); err == nil || !strings.Contains(err.Error(), "cannot retire safely") {
		t.Fatalf("evict with sync and rewrite failing: err = %v, want a refusal", err)
	}
	if got := st.Resident(); got != 1 {
		t.Fatalf("refused eviction left %d sessions resident, want 1", got)
	}
	fsys.SetHook(nil)
	// The next write heals first, so it lands after the refused record.
	if err := ds.Assert(3, false); err != nil {
		t.Fatalf("assert after a refused eviction: %v", err)
	}
	if err := st.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if seq := crashAndCount(); seq != 4 {
		t.Fatalf("after the healed eviction and a crash: seq %d, want 4", seq)
	}
}

// TestStoreShortWriteTornTail: a torn append (partial frame hits disk)
// fails the assert; if the process dies before healing, recovery drops
// exactly the torn tail with a logged warning and keeps every
// acknowledged record.
func TestStoreShortWriteTornTail(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	fsys := wal.NewMemFS()
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Assert(0, true); err != nil {
		t.Fatal(err)
	}

	fsys.ShortWriteNext(5) // the next WAL append persists 5 bytes of the frame
	if err := ds.Assert(1, false); err == nil {
		t.Fatal("assert with torn write: want error")
	}
	// Make the torn bytes durable — the worst case — then die unhealed.
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	fsys.Restart()

	lc := &logCapture{}
	st2, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: lc.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := st2.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := ds2.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Seq != 1 || !hist[0].Approved {
		t.Fatalf("recovered history %+v, want exactly the acknowledged record", hist)
	}
	if !lc.contains("damaged tail") {
		t.Fatalf("torn tail dropped silently; warnings: %v", lc.lines)
	}
	// The unacknowledged assertion can simply be retried.
	if err := ds2.Assert(1, false); err != nil {
		t.Fatalf("retry after torn-tail recovery: %v", err)
	}
}

// TestStoreSequenceGapDropsTail: WAL records past a sequence gap were
// never acknowledged durable. Recovery of a legacy snapshot beside a
// WAL keeps the snapshot plus the contiguous records, warns with the
// number of records dropped from the gap on (not the WAL's length,
// which also counts the overlap the snapshot covers), and migrates: the
// WAL is rewritten with the 2 stitched records and the snapshot is
// removed, so a second reopen has nothing left to warn about.
func TestStoreSequenceGapDropsTail(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 4}
	rec := func(seq uint64, c int, ok bool) wal.Record {
		cand := net.Candidate(c)
		return wal.Record{Seq: seq, From: net.FullName(cand.A), To: net.FullName(cand.B), Approved: ok}
	}
	fsys := wal.NewMemFS()
	dir := filepath.Join("store", "alpha")
	if err := fsys.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	r1, r2 := rec(1, 0, true), rec(2, 3, false)
	snap := fmt.Sprintf(`{"version":1,"seq":2,"candidates":%d,"history":[
		{"from":%q,"to":%q,"approved":true},{"from":%q,"to":%q,"approved":false}]}`,
		net.NumCandidates(), r1.From, r1.To, r2.From, r2.To)
	if err := wal.AtomicWriteFile(fsys, dir, filepath.Join(dir, "snapshot.json"), []byte(snap)); err != nil {
		t.Fatal(err)
	}
	log := wal.EncodeLog([]wal.Record{r1, r2, rec(4, 1, true), rec(5, 2, true)})
	if err := wal.AtomicWriteFile(fsys, dir, filepath.Join(dir, "wal.log"), log); err != nil {
		t.Fatal(err)
	}

	reopen := func(lc *logCapture) (*schemanet.SessionStore, *schemanet.DurableSession) {
		t.Helper()
		st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: lc.logf})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Session("alpha")
		if err != nil {
			t.Fatal(err)
		}
		return st, ds
	}
	lc := &logCapture{}
	st, ds := reopen(lc)
	if seq, err := ds.Seq(); err != nil || seq != 2 {
		t.Fatalf("Seq() = %d, %v; want 2", seq, err)
	}
	if !lc.contains("dropping 2 WAL record(s) after sequence gap (4 after 2)") {
		t.Fatalf("gap warning does not count the dropped tail; warnings: %v", lc.lines)
	}
	data, err := fsys.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, res := wal.Recover(data); !reflect.DeepEqual(recs, []wal.Record{r1, r2}) || !res.Clean() {
		t.Fatalf("WAL after the gap rewrite holds %+v (clean %v), want the 2 stitched records", recs, res.Clean())
	}
	if _, err := fsys.ReadFile(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("legacy snapshot survived the migration (read err %v)", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	lc2 := &logCapture{}
	st2, ds2 := reopen(lc2)
	defer st2.Close()
	if seq, err := ds2.Seq(); err != nil || seq != 2 {
		t.Fatalf("second reopen: Seq() = %d, %v; want 2", seq, err)
	}
	if len(lc2.lines) != 0 {
		t.Fatalf("second reopen logged %v, want nothing", lc2.lines)
	}
}

// TestStoreLRUEviction: the pool bound holds, the least-recently-used
// session is the one evicted, and an evicted session reopens
// transparently with identical state.
func TestStoreLRUEviction(t *testing.T) {
	net, truth := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 9}
	fsys := wal.NewMemFS()
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
		Session: opts, FS: fsys, MaxOpen: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	names := []string{"a", "b", "c"}
	handles := map[string]*schemanet.DurableSession{}
	want := map[string]float64{}
	for i, name := range names {
		ds, err := st.Session(name)
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = ds
		c := i // different first assertion per session
		if err := ds.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		want[name] = mustProb(t, ds, 3)
	}
	if got := st.Resident(); got != 2 {
		t.Fatalf("Resident() = %d after opening 3 sessions with MaxOpen 2", got)
	}
	// "a" was the LRU victim; its handle must reopen it transparently.
	if got := mustProb(t, handles["a"], 3); got != want["a"] {
		t.Fatalf("reopened session a: p = %v, want %v", got, want["a"])
	}
	if got := st.Resident(); got != 2 {
		t.Fatalf("Resident() = %d after transparent reopen", got)
	}
	hist, err := handles["a"].History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Fatalf("session a recovered %d records after eviction, want 1", len(hist))
	}

	// Explicit eviction: resident or not, and double-evict, are fine.
	if err := st.Evict("b"); err != nil {
		t.Fatal(err)
	}
	if err := st.Evict("b"); err != nil {
		t.Fatalf("evicting non-resident session: %v", err)
	}
	if got := mustProb(t, handles["b"], 3); got != want["b"] {
		t.Fatalf("session b after explicit evict: p = %v, want %v", got, want["b"])
	}
}

func TestStoreClosedAndInvalidNames(t *testing.T) {
	net, _ := videoNet(t)
	fsys := wal.NewMemFS()
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
		Session: &schemanet.Options{Inference: "exact"}, FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "-flag", "a/b", "a\\b", "x y", strings.Repeat("n", 200)} {
		if _, err := st.Session(bad); err == nil {
			t.Errorf("Session(%q): want error", bad)
		}
	}
	ds, err := st.Session("ok-1.x_y")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Session("ok-1.x_y"); !errors.Is(err, schemanet.ErrStoreClosed) {
		t.Fatalf("Session on closed store: %v", err)
	}
	if err := ds.Assert(0, true); !errors.Is(err, schemanet.ErrStoreClosed) {
		t.Fatalf("Assert on closed store: %v", err)
	}
	if err := st.Evict("ok-1.x_y"); !errors.Is(err, schemanet.ErrStoreClosed) {
		t.Fatalf("Evict on closed store: %v", err)
	}
}

// TestStoreBatchAtomicity: a rejected batch or schema leaves no trace —
// not in memory, not in the WAL, not after a restart.
func TestStoreBatchAtomicity(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 2}
	fsys := wal.NewMemFS()
	sopts := &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: t.Logf}
	st, err := schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := st.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]schemanet.Assertion{
		{{Cand: 0, Approved: true}, {Cand: 99, Approved: true}}, // out of universe
		{{Cand: 0, Approved: true}, {Cand: 0, Approved: false}}, // duplicate in batch
		{{Cand: -1, Approved: true}},                            // negative
	} {
		if err := ds.AssertBatch(batch); err == nil {
			t.Fatalf("batch %+v: want error", batch)
		}
		if seq, _ := ds.Seq(); seq != 0 {
			t.Fatalf("rejected batch %+v advanced seq to %d", batch, seq)
		}
	}
	// A schema with a repeated attribute name is rejected by the network
	// before anything is applied or logged.
	walPath := filepath.Join("store", "alpha", "wal.log")
	before, err := fsys.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddSchema("X", "a", "a"); err == nil {
		t.Fatal(`AddSchema("X", "a", "a"): want error`)
	}
	if seq, _ := ds.Seq(); seq != 0 {
		t.Fatalf("rejected schema advanced seq to %d", seq)
	}
	if after, err := fsys.ReadFile(walPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("rejected schema changed the WAL (%v): %q -> %q", err, before, after)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := schemanet.OpenStore("store", net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ds2, err := st2.Session("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if hist, _ := ds2.History(); len(hist) != 0 {
		t.Fatalf("rejected batches leaked %d records into the WAL", len(hist))
	}
}

// TestStoreConcurrentSessions exercises the store under the race
// detector: concurrent writers on separate sessions, plus readers and
// writers sharing one session, against a small LRU pool so eviction
// and reopen race with use.
func TestStoreConcurrentSessions(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	opts := &schemanet.Options{Inference: "exact", Seed: 13}
	fsys := wal.NewMemFS()
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
		Session: opts, FS: fsys, MaxOpen: 2, Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"s0", "s1", "s2", "shared"}[w]
			ds, err := st.Session(name)
			if err != nil {
				errs <- err
				return
			}
			for c := 0; c < net.NumCandidates(); c++ {
				if c%4 != w {
					continue
				}
				if err := ds.AssertAs("w", c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
					errs <- err
					return
				}
				if _, err := ds.Probability(c); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers hammering the shared session while it is written.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := st.Session("shared")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 50; i++ {
				if _, err := ds.Uncertainty(); err != nil {
					errs <- err
					return
				}
				ds.Suggest()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreSyncPolicyNone: under "none" the WAL is fsynced only at
// eviction, Close, a heal, and Sync — a crash may lose a suffix of
// acknowledged assertions, while an eviction or a clean Close before
// the crash loses nothing.
func TestStoreSyncPolicyNone(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 4}
	for _, tc := range []struct {
		name   string
		settle func(st *schemanet.SessionStore) error
	}{
		{"close", func(st *schemanet.SessionStore) error { return st.Close() }},
		{"evict", func(st *schemanet.SessionStore) error { return st.Evict("alpha") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := wal.NewMemFS()
			sopts := &schemanet.StoreOptions{Session: opts, FS: fsys, Sync: "none", Logf: t.Logf}
			st, err := schemanet.OpenStore("store", net, sopts)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := st.Session("alpha")
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 3; c++ {
				if err := ds.Assert(c, true); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.settle(st); err != nil { // the sync point: everything durable
				t.Fatal(err)
			}
			fsys.Crash()
			fsys.Restart()
			st2, err := schemanet.OpenStore("store", net, sopts)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			ds2, err := st2.Session("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if seq, _ := ds2.Seq(); seq != 3 {
				t.Fatalf("after %s and a crash under \"none\": seq %d, want 3", tc.name, seq)
			}
		})
	}
}

func TestOpenStoreOptionValidation(t *testing.T) {
	net, _ := videoNet(t)
	fsys := wal.NewMemFS()
	if _, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{FS: fsys, Sync: "sometimes"}); err == nil {
		t.Error("bad sync policy accepted")
	}
	if _, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{FS: fsys, MaxOpen: -1}); err == nil {
		t.Error("negative MaxOpen accepted")
	}
	if _, err := schemanet.OpenStore("store", nil, &schemanet.StoreOptions{FS: fsys}); err == nil {
		t.Error("nil network accepted")
	}
}

// --- Topology crash sweep ---------------------------------------------

// topoDriver abstracts the mutating surface shared by a plain Session
// and a DurableSession, so the topology crash sweep can run one op
// script against both (the durable store under fault injection, the
// plain session as the bit-identical reference).
type topoDriver interface {
	assert(c int, ok bool) error
	addSchema(name string, attrs ...string) error
	addCandidates(cs []schemanet.Correspondence) error
	retire(c int) error
}

type plainDriver struct{ s *schemanet.Session }

func (d plainDriver) assert(c int, ok bool) error { return d.s.Assert(c, ok) }
func (d plainDriver) addSchema(name string, attrs ...string) error {
	return d.s.AddSchema(name, attrs...)
}
func (d plainDriver) addCandidates(cs []schemanet.Correspondence) error {
	return d.s.AddCandidates(cs)
}
func (d plainDriver) retire(c int) error { return d.s.RetireCandidate(c) }

type durableDriver struct{ ds *schemanet.DurableSession }

func (d durableDriver) assert(c int, ok bool) error { return d.ds.AssertAs("ann", c, ok) }
func (d durableDriver) addSchema(name string, attrs ...string) error {
	return d.ds.AddSchema(name, attrs...)
}
func (d durableDriver) addCandidates(cs []schemanet.Correspondence) error {
	return d.ds.AddCandidates(cs)
}
func (d durableDriver) retire(c int) error { return d.ds.RetireCandidate(c) }

// topoOpStep is one op of the topology crash-sweep script plus its
// effect on the observable state signature (schemas, candidates,
// retired, history length) — the sweep uses the signature to identify
// which op prefix a crash-recovered session corresponds to. History()
// renders every WAL record, topology ops included, so dHist is 1 for
// all op kinds and the history length alone pins the prefix.
type topoOpStep struct {
	run                               func(d topoDriver) error
	dSchemas, dCands, dRetired, dHist int
}

// topoScenarioOps is the fixed grow/assert workload for the topology
// crash sweep: assertions interleaved with an add-schema, an
// add-candidates (whose new candidate is then asserted), and a retire,
// so WAL topology records of every kind land between assertion
// records; a last assertion follows the retire. baseAttrs is the base network's attribute count (appended
// attributes take the next IDs).
func topoScenarioOps(baseAttrs, baseCands int) []topoOpStep {
	newAttr := schemanet.AttrID(baseAttrs) // "live.x"
	newCand := baseCands                   // index of the appended candidate
	return []topoOpStep{
		{run: func(d topoDriver) error { return d.assert(0, true) }, dHist: 1},
		{run: func(d topoDriver) error { return d.addSchema("live", "x", "y") }, dSchemas: 1, dHist: 1},
		{run: func(d topoDriver) error {
			return d.addCandidates([]schemanet.Correspondence{{A: newAttr, B: 0, Confidence: 0.7}})
		}, dCands: 1, dHist: 1},
		{run: func(d topoDriver) error { return d.assert(1, false) }, dHist: 1},
		{run: func(d topoDriver) error { return d.retire(2) }, dRetired: 1, dHist: 1},
		{run: func(d topoDriver) error { return d.assert(newCand, true) }, dHist: 1},
		{run: func(d topoDriver) error { return d.assert(3, true) }, dHist: 1},
	}
}

// storeTopoScenario runs the grow/assert workload against a durable
// store on fsys — evicting the session after its second and fourth ops,
// so the rest of the script runs on a session reopened by replaying
// topology records from the WAL — closes the store, and returns how
// many ops were acknowledged before the first failure.
func storeTopoScenario(net *schemanet.Network, opts *schemanet.Options, fsys *wal.MemFS, logf func(string, ...any)) int {
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: logf})
	if err != nil {
		return 0
	}
	defer st.Close()
	ds, err := st.Session("alpha")
	if err != nil {
		return 0
	}
	d := durableDriver{ds}
	ops := topoScenarioOps(net.NumAttributes(), net.NumCandidates())
	for i, op := range ops {
		if i == 2 || i == 4 {
			if st.Evict("alpha") != nil {
				return i
			}
			if _, err := st.Session("alpha"); err != nil {
				return i
			}
		}
		if op.run(d) != nil {
			return i
		}
	}
	_ = st.Close()
	return len(ops)
}

// TestStoreCrashAtEveryTopologyOp extends the crash sweep to network
// growth: crash the filesystem at every mutating operation of a
// workload that interleaves assertions with add-schema,
// add-candidates, and retire; recovery must land on an exact op prefix
// containing every acknowledged op, with probabilities bit-identical
// to a plain session replaying that prefix — and the recovered session
// must accept the rest of the workload and converge to the same final
// state as a never-crashed run.
func TestStoreCrashAtEveryTopologyOp(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 9}
	ops := topoScenarioOps(net.NumAttributes(), net.NumCandidates())

	replay := func(p int) *schemanet.Session {
		s, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := plainDriver{s}
		for i := 0; i < p; i++ {
			if err := ops[i].run(d); err != nil {
				t.Fatalf("reference replay op %d: %v", i, err)
			}
		}
		return s
	}
	sig := func(p int) [4]int {
		s := [4]int{net.NumSchemas(), net.NumCandidates(), 0, 0}
		for i := 0; i < p; i++ {
			s[0] += ops[i].dSchemas
			s[1] += ops[i].dCands
			s[2] += ops[i].dRetired
			s[3] += ops[i].dHist
		}
		return s
	}
	// Every prefix must have a distinct signature, or recovery points
	// would be ambiguous and the sweep vacuous.
	seen := map[[4]int]bool{}
	for p := 0; p <= len(ops); p++ {
		if seen[sig(p)] {
			t.Fatalf("op script broken: prefix %d signature %v not unique", p, sig(p))
		}
		seen[sig(p)] = true
	}

	clean := wal.NewMemFS()
	if got := storeTopoScenario(net, opts, clean, t.Logf); got != len(ops) {
		t.Fatalf("uncrashed scenario acked %d ops, want %d", got, len(ops))
	}
	total := clean.Ops()
	if total < 30 {
		t.Fatalf("scenario runs only %d mutating fs ops; crash sweep would be trivial", total)
	}
	discard := func(string, ...any) {}

	for k := 0; k < total; k++ {
		fsys := wal.NewMemFS()
		fsys.CrashAfterOps(k)
		acked := storeTopoScenario(net, opts, fsys, discard)
		if !fsys.Crashed() {
			t.Fatalf("crash point %d/%d never hit", k, total)
		}
		fsys.Restart()

		st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
			Session: opts, FS: fsys, Logf: discard,
		})
		if err != nil {
			t.Fatalf("crash@%d: reopening store: %v", k, err)
		}
		ds, err := st.Session("alpha")
		if err != nil {
			t.Fatalf("crash@%d: recovering session: %v", k, err)
		}
		rnet := ds.Network()
		hist, err := ds.History()
		if err != nil {
			t.Fatalf("crash@%d: history: %v", k, err)
		}
		got := [4]int{rnet.NumSchemas(), rnet.NumCandidates(), rnet.NumRetired(), len(hist)}
		p := -1
		for q := 0; q <= len(ops); q++ {
			if sig(q) == got {
				p = q
				break
			}
		}
		if p < 0 {
			t.Fatalf("crash@%d: recovered state %v matches no op prefix", k, got)
		}
		if p < acked {
			t.Fatalf("crash@%d: LOST COMMITTED OPS: %d acknowledged, recovered at prefix %d", k, acked, p)
		}
		ref := replay(p)
		for c := 0; c < rnet.NumCandidates(); c++ {
			if gotP, want := mustProb(t, ds, c), mustProb(t, ref, c); gotP != want {
				t.Fatalf("crash@%d: recovered p(%d) = %v, want %v (prefix %d)", k, c, gotP, want, p)
			}
		}
		// The recovered session must take the rest of the workload and
		// converge to the never-crashed final state.
		d := durableDriver{ds}
		for i := p; i < len(ops); i++ {
			if err := ops[i].run(d); err != nil {
				t.Fatalf("crash@%d: op %d on recovered session: %v", k, i, err)
			}
		}
		full := replay(len(ops))
		fnet := ds.Network()
		for c := 0; c < fnet.NumCandidates(); c++ {
			if gotP, want := mustProb(t, ds, c), mustProb(t, full, c); gotP != want {
				t.Fatalf("crash@%d: final p(%d) = %v, want %v", k, c, gotP, want)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("crash@%d: closing recovered store: %v", k, err)
		}
	}
}

// TestStoreLegacyMigrationCrashAtEveryOp: a session directory an
// earlier version of the store left behind — a snapshot.json beside a
// WAL tail, before and after a compaction (the store_v* golden
// fixtures) — migrates into one WAL on open. Crash the filesystem at
// every mutating op of that open: the next open must recover the
// golden script's whole history, leave wal.log holding exactly it, and
// leave no snapshot.json behind.
func TestStoreLegacyMigrationCrashAtEveryOp(t *testing.T) {
	net, _ := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	dir := filepath.Join("store", "golden")
	for _, tc := range []struct {
		version string
		grow    bool
	}{{"store_v1", false}, {"store_v2", true}} {
		want, _ := goldenStore(t, tc.grow)
		for _, pair := range []string{"before", "after"} {
			t.Run(tc.version+"_"+pair, func(t *testing.T) {
				seed := func() *wal.MemFS {
					fsys := wal.NewMemFS()
					for file, golden := range map[string]string{
						"snapshot.json": tc.version + "_snapshot_" + pair + ".json",
						"wal.log":       tc.version + "_wal_" + pair + ".log",
					} {
						data, err := os.ReadFile(filepath.Join("testdata", "golden", golden))
						if err != nil {
							t.Fatal(err)
						}
						if err := wal.AtomicWriteFile(fsys, dir, filepath.Join(dir, file), data); err != nil {
							t.Fatal(err)
						}
					}
					return fsys
				}
				open := func(fsys *wal.MemFS, logf func(string, ...any)) (*schemanet.SessionStore, []schemanet.AssertionRecord, error) {
					st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: fsys, Logf: logf})
					if err != nil {
						return nil, nil, err
					}
					ds, err := st.Session("golden")
					if err != nil {
						st.Close()
						return nil, nil, err
					}
					hist, err := ds.History()
					return st, hist, err
				}
				discard := func(string, ...any) {}

				probe := seed()
				base := probe.Ops()
				st, hist, err := open(probe, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				total := probe.Ops() - base
				if !reflect.DeepEqual(hist, want) {
					t.Fatalf("migrated history %+v, want %+v", hist, want)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}

				for k := 0; k <= total; k++ {
					fsys := seed()
					fsys.CrashAfterOps(k)
					if st, _, err := open(fsys, discard); err == nil {
						st.Close()
					}
					fsys.Restart()
					st, hist, err := open(fsys, discard)
					if err != nil {
						t.Fatalf("crash@%d: reopening: %v", k, err)
					}
					if !reflect.DeepEqual(hist, want) {
						t.Fatalf("crash@%d: recovered history %+v, want %+v", k, hist, want)
					}
					if err := st.Close(); err != nil {
						t.Fatalf("crash@%d: closing: %v", k, err)
					}
					if _, err := fsys.ReadFile(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
						t.Fatalf("crash@%d: snapshot.json survived a clean reopen (read err %v)", k, err)
					}
					data, err := fsys.ReadFile(filepath.Join(dir, "wal.log"))
					if err != nil {
						t.Fatal(err)
					}
					if recs, res := wal.Recover(data); !res.Clean() || !reflect.DeepEqual(recs, want) {
						t.Fatalf("crash@%d: wal.log holds %+v (clean %v), want the whole history", k, recs, res.Clean())
					}
				}
			})
		}
	}
}

// TestStoreOneFilePerSession: after a clean run of asserts, batches,
// topology ops, evictions, and Close on the real filesystem, every
// session directory holds wal.log and nothing else, and the WAL
// recovers to exactly the session's History().
func TestStoreOneFilePerSession(t *testing.T) {
	net, truth := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 6}
	root := t.TempDir()
	sopts := &schemanet.StoreOptions{Session: opts, MaxOpen: 1, Logf: t.Logf}
	st, err := schemanet.OpenStore(root, net, sopts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b"}
	ops := topoScenarioOps(net.NumAttributes(), net.NumCandidates())
	want := map[string][]schemanet.AssertionRecord{}
	for i, name := range names {
		ds, err := st.Session(name) // MaxOpen 1: evicts the other session
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for _, op := range ops {
				if err := op.run(durableDriver{ds}); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if err := ds.AssertAs("x", 0, truth.ContainsCorrespondence(net.Candidate(0))); err != nil {
				t.Fatal(err)
			}
			if err := ds.AssertBatchAs("crowd", []schemanet.Assertion{{Cand: 1, Approved: true}, {Cand: 3, Approved: false}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Evict(name); err != nil {
			t.Fatal(err)
		}
		if want[name], err = ds.History(); err != nil { // reopens from disk
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		entries, err := os.ReadDir(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		if !reflect.DeepEqual(files, []string{"wal.log"}) {
			t.Fatalf("session %q directory holds %v, want just wal.log", name, files)
		}
		data, err := os.ReadFile(filepath.Join(root, name, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		recs, res := wal.Recover(data)
		if !res.Clean() || len(recs) == 0 || !reflect.DeepEqual(recs, want[name]) {
			t.Fatalf("session %q: WAL recovers to %+v (clean %v), want History() %+v", name, recs, res.Clean(), want[name])
		}
	}
}
