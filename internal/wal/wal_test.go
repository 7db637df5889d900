package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords returns a varied corpus: empty and unicode strings,
// long annotators, both approval polarities, and non-contiguous seqs
// (the format only requires them to increase; the session store's gap
// rule is its own).
func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Annotator: "alice", From: "BBC.date", To: "DVDizzy.releaseDate", Approved: true},
		{Seq: 2, Annotator: "", From: "a.x", To: "b.y", Approved: false},
		{Seq: 3, Annotator: "bob", From: "Pâté.préçis", To: "日本.名前", Approved: true},
		{Seq: 5, Annotator: strings.Repeat("long-annotator-", 20), From: "s.t", To: "u.v", Approved: false},
		{Seq: 9, Annotator: "carol", From: "", To: "", Approved: true},
	}
}

func TestRecoverRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeLog(recs)
	got, res := Recover(data)
	if !res.Clean() || res.ValidLen != len(data) {
		t.Fatalf("clean log not recovered cleanly: %+v", res)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered %+v, want %+v", got, recs)
	}
	if empty, res := Recover(nil); empty != nil || !res.Clean() {
		t.Fatalf("empty input: got %v, %+v", empty, res)
	}
}

// TestRecoverEveryTruncation is the crash-at-every-byte property: for
// every truncation point of a recorded WAL, recovery yields exactly
// the records whose frames fit entirely in the prefix — the longest
// valid record prefix — and flags the torn tail iff the cut is not on
// a record boundary.
func TestRecoverEveryTruncation(t *testing.T) {
	recs := sampleRecords()
	data := EncodeLog(recs)
	// Record boundaries: byte offset after the header and after each frame.
	bounds := []int{headerLen}
	buf := append([]byte(nil), magic[:]...)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
		bounds = append(bounds, len(buf))
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("EncodeLog disagrees with incremental AppendRecord")
	}
	for cut := 0; cut <= len(data); cut++ {
		got, res := Recover(data[:cut])
		wantN := 0
		for _, b := range bounds[1:] {
			if b <= cut {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d (res %+v)", cut, len(got), wantN, res)
		}
		if !reflect.DeepEqual(got, append([]Record(nil), recs[:wantN]...)) {
			t.Fatalf("cut %d: recovered wrong records: %+v", cut, got)
		}
		atBoundary := cut == 0
		for _, b := range bounds {
			if cut == b {
				atBoundary = true
			}
		}
		if res.Clean() != atBoundary {
			t.Fatalf("cut %d: Clean() = %v, boundary = %v (tail %v)", cut, res.Clean(), atBoundary, res.Tail)
		}
		if wantValid := 0; cut >= headerLen {
			wantValid = bounds[wantN]
			if res.ValidLen != wantValid {
				t.Fatalf("cut %d: ValidLen %d, want %d", cut, res.ValidLen, wantValid)
			}
		} else if res.ValidLen != 0 {
			t.Fatalf("cut %d inside header: ValidLen %d, want 0", cut, res.ValidLen)
		}
	}
}

// TestRecoverEveryByteCorruption flips every byte of a recorded WAL in
// turn: recovery must return exactly the records preceding the one the
// flipped byte belongs to (header corruption drops everything) and
// never panic. CRC32C detects any single-byte error within a frame.
func TestRecoverEveryByteCorruption(t *testing.T) {
	recs := sampleRecords()
	data := EncodeLog(recs)
	bounds := []int{headerLen}
	buf := append([]byte(nil), magic[:]...)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
		bounds = append(bounds, len(buf))
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0xff
		got, res := Recover(mut)
		// The record index whose frame contains pos (-1 = header).
		owner := -1
		for i := 1; i < len(bounds); i++ {
			if pos >= bounds[i-1] && pos < bounds[i] {
				owner = i - 1
			}
		}
		wantN := 0
		if owner >= 0 {
			wantN = owner
		}
		if res.Clean() {
			t.Fatalf("pos %d: corruption not detected", pos)
		}
		if len(got) != wantN || !reflect.DeepEqual(got, append([]Record(nil), recs[:wantN]...)) {
			t.Fatalf("pos %d (record %d): recovered %d records, want %d", pos, owner, len(got), wantN)
		}
	}
}

func TestRecoverSequenceRegression(t *testing.T) {
	recs := []Record{
		{Seq: 3, Annotator: "a", From: "x.a", To: "y.b", Approved: true},
		{Seq: 3, Annotator: "a", From: "x.c", To: "y.d", Approved: true}, // not strictly increasing
	}
	got, res := Recover(EncodeLog(recs))
	if len(got) != 1 || res.Clean() {
		t.Fatalf("got %d records, clean=%v; want 1 record with a tail warning", len(got), res.Clean())
	}
	zero := []Record{{Seq: 0, From: "x.a", To: "y.b"}}
	if got, res := Recover(EncodeLog(zero)); len(got) != 0 || res.Clean() {
		t.Fatalf("seq 0 accepted: %d records, clean=%v", len(got), res.Clean())
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	fsys := NewMemFS()
	dir := "store/sess"
	path := filepath.Join(dir, "wal.log")
	recs := sampleRecords()
	if err := AtomicWriteFile(fsys, dir, path, append(EncodeLog(recs), "garbage-tail"...)); err != nil {
		t.Fatal(err)
	}
	l, got, res, err := Open(fsys, dir, path, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("torn tail not reported")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered %+v, want %+v", got, recs)
	}
	// The tail must be physically gone: append, reopen, everything clean.
	next := Record{Seq: 10, Annotator: "d", From: "p.q", To: "r.s", Approved: true}
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got2, res2 := Recover(data)
	if !res2.Clean() {
		t.Fatalf("tail survived repair: %v", res2.Tail)
	}
	if want := append(append([]Record(nil), recs...), next); !reflect.DeepEqual(got2, want) {
		t.Fatalf("after repair+append: %+v, want %+v", got2, want)
	}
}

func TestOpenBadHeaderDropsAllWithWarning(t *testing.T) {
	fsys := NewMemFS()
	dir, path := "d", filepath.Join("d", "wal.log")
	if err := AtomicWriteFile(fsys, dir, path, []byte("not a wal file at all")); err != nil {
		t.Fatal(err)
	}
	l, recs, res, err := Open(fsys, dir, path, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 || res.Clean() {
		t.Fatalf("recs %v clean %v; want empty with warning", recs, res.Clean())
	}
	if err := l.Append(Record{Seq: 1, From: "a.b", To: "c.d"}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendMonotonicityEnforced(t *testing.T) {
	fsys := NewMemFS()
	dir, path := "d", filepath.Join("d", "wal.log")
	l, _, _, err := Open(fsys, dir, path, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Seq: 2, From: "a.b", To: "c.d"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 2, From: "a.b", To: "c.e"}); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if err := l.Append(Record{Seq: 4, From: "a.b", To: "c.e"}, Record{Seq: 3, From: "x.y", To: "z.w"}); err == nil {
		t.Fatal("in-batch regression accepted")
	}
	// The failed batch must not have written anything.
	if err := l.Append(Record{Seq: 3, From: "x.y", To: "z.w"}); err != nil {
		t.Fatalf("log poisoned by rejected batch: %v", err)
	}
	if err := l.Rewrite([]Record{{Seq: 100, From: "a.b", To: "c.d"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 50, From: "a.b", To: "c.f"}); err == nil {
		t.Fatal("append below the rewritten cursor accepted")
	}
}

// TestSyncPolicies pins the durability each policy buys, on the strict
// MemFS model where unsynced writes die with the crash.
func TestSyncPolicies(t *testing.T) {
	mk := func(policy SyncPolicy) (*MemFS, *Log) {
		fsys := NewMemFS()
		l, _, _, err := Open(fsys, "d", filepath.Join("d", "wal.log"), policy)
		if err != nil {
			t.Fatal(err)
		}
		return fsys, l
	}
	batch := []Record{
		{Seq: 1, From: "a.b", To: "c.d", Approved: true},
		{Seq: 2, From: "a.e", To: "c.f"},
		{Seq: 3, From: "a.g", To: "c.h", Approved: true},
	}
	crashRecover := func(fsys *MemFS) []Record {
		fsys.Crash()
		fsys.Restart()
		data, err := fsys.ReadFile(filepath.Join("d", "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := Recover(data)
		return recs
	}

	t.Run("none loses unsynced appends", func(t *testing.T) {
		fsys, l := mk(SyncNone)
		if err := l.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if got := crashRecover(fsys); len(got) != 0 {
			t.Fatalf("SyncNone: %d records survived an immediate crash", len(got))
		}
	})
	t.Run("batch makes the whole append durable", func(t *testing.T) {
		fsys, l := mk(SyncBatch)
		if err := l.Append(batch...); err != nil {
			t.Fatal(err)
		}
		if got := crashRecover(fsys); !reflect.DeepEqual(got, batch) {
			t.Fatalf("SyncBatch: recovered %+v, want full batch", got)
		}
	})
	t.Run("always keeps records before a failed sync", func(t *testing.T) {
		fsys, l := mk(SyncAlways)
		syncs := 0
		fsys.SetHook(func(op, name string, n int) error {
			if op == "sync" {
				syncs++
				if syncs == 2 { // first record's sync passes, second fails
					return fmt.Errorf("injected sync failure")
				}
			}
			return nil
		})
		err := l.Append(batch...)
		if err == nil || !strings.Contains(err.Error(), "injected sync failure") {
			t.Fatalf("err = %v, want injected sync failure", err)
		}
		fsys.SetHook(nil)
		if got := crashRecover(fsys); !reflect.DeepEqual(got, batch[:1]) {
			t.Fatalf("SyncAlways: recovered %+v, want exactly the first record", got)
		}
	})
	t.Run("short write leaves a recoverable torn tail", func(t *testing.T) {
		fsys, l := mk(SyncBatch)
		if err := l.Append(batch[0]); err != nil {
			t.Fatal(err)
		}
		fsys.ShortWriteNext(5)
		if err := l.Append(batch[1]); err == nil {
			t.Fatal("short write not surfaced")
		} else if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("err = %v, want io.ErrShortWrite", err)
		}
		// No crash: the live file holds record 1 plus 5 torn bytes.
		data, err := fsys.ReadFile(filepath.Join("d", "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		got, res := Recover(data)
		if res.Clean() || !reflect.DeepEqual(got, batch[:1]) {
			t.Fatalf("after short write: %+v clean=%v, want record 1 with torn tail", got, res.Clean())
		}
	})
}

// TestAtomicWriteFileCrashAtEveryOp proves the write-sync-rename-syncdir
// primitive: whatever operation the crash lands on, restart observes
// either the old content or the new content, entire.
func TestAtomicWriteFileCrashAtEveryOp(t *testing.T) {
	const (
		dir   = "d"
		old   = "old-content"
		newer = "new-content-longer-than-old"
	)
	path := filepath.Join(dir, "snapshot.json")
	// Count the ops of one uncrashed run.
	probe := NewMemFS()
	if err := AtomicWriteFile(probe, dir, path, []byte(old)); err != nil {
		t.Fatal(err)
	}
	base := probe.Ops()
	if err := AtomicWriteFile(probe, dir, path, []byte(newer)); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops() - base
	for k := 0; k <= total; k++ {
		fsys := NewMemFS()
		if err := AtomicWriteFile(fsys, dir, path, []byte(old)); err != nil {
			t.Fatal(err)
		}
		fsys.CrashAfterOps(k)
		err := AtomicWriteFile(fsys, dir, path, []byte(newer))
		if (err == nil) != (k >= total) {
			t.Fatalf("crash at op %d/%d: err = %v", k, total, err)
		}
		fsys.Restart()
		got, rerr := fsys.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: file vanished: %v", k, rerr)
		}
		if s := string(got); s != old && s != newer {
			t.Fatalf("crash at op %d: mixed content %q", k, s)
		}
	}
}

// TestLogRewriteSetsSequenceCursor: Rewrite replaces the file with
// exactly the given records, the cursor becomes the last rewritten seq
// (so a lower one is rejected), and appends continue after it.
func TestLogRewriteSetsSequenceCursor(t *testing.T) {
	fsys := NewMemFS()
	dir, path := "d", filepath.Join("d", "wal.log")
	l, _, _, err := Open(fsys, dir, path, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(Record{Seq: seq, From: "a.b", To: "c.d"}); err != nil {
			t.Fatal(err)
		}
	}
	kept := []Record{{Seq: 1, From: "a.b", To: "c.d"}, {Seq: 2, From: "a.e", To: "c.f", Approved: true}, {Seq: 3, From: "a.g", To: "c.h"}}
	if err := l.Rewrite([]Record{kept[1], kept[0]}); err == nil {
		t.Fatal("rewrite with a sequence regression accepted")
	}
	if err := l.Rewrite(kept); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after rewrite = %d, want 3", got)
	}
	if err := l.Append(Record{Seq: 2, From: "a.b", To: "c.d"}); err == nil {
		t.Fatal("rewrite left the cursor below the rewritten records")
	}
	next := Record{Seq: 4, From: "a.i", To: "c.j"}
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, res := Recover(data)
	if want := append(kept, next); !res.Clean() || !reflect.DeepEqual(recs, want) {
		t.Fatalf("after rewrite+append: %+v (clean %v), want %+v", recs, res.Clean(), want)
	}
	// Rewrite reopens a closed log.
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Seq: 1, From: "a.b", To: "c.d"}); err != nil {
		t.Fatalf("append after rewriting a closed log to empty: %v", err)
	}
}

// TestLogRewriteCrashAtEveryOp: whatever filesystem operation a crash
// lands on during a Rewrite, restart recovers either the old log or the
// rewritten one, entire and clean.
func TestLogRewriteCrashAtEveryOp(t *testing.T) {
	dir, path := "d", filepath.Join("d", "wal.log")
	old := sampleRecords()
	newer := []Record{
		{Seq: 1, Annotator: "alice", From: "BBC.date", To: "DVDizzy.releaseDate", Approved: true},
		{Seq: 2, From: "a.x", To: "b.y"},
	}
	setup := func() (*MemFS, *Log) {
		fsys := NewMemFS()
		l, _, _, err := Open(fsys, dir, path, SyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(old...); err != nil {
			t.Fatal(err)
		}
		return fsys, l
	}
	// Count the ops of one uncrashed rewrite.
	probe, l := setup()
	base := probe.Ops()
	if err := l.Rewrite(newer); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops() - base
	if total < 4 {
		t.Fatalf("rewrite runs only %d mutating ops; sweep would be trivial", total)
	}
	for k := 0; k <= total; k++ {
		fsys, l := setup()
		fsys.CrashAfterOps(k)
		err := l.Rewrite(newer)
		if (err == nil) != (k >= total) {
			t.Fatalf("crash at op %d/%d: err = %v", k, total, err)
		}
		fsys.Restart()
		data, rerr := fsys.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: log vanished: %v", k, rerr)
		}
		got, res := Recover(data)
		if !res.Clean() || !(reflect.DeepEqual(got, old) || reflect.DeepEqual(got, newer)) {
			t.Fatalf("crash at op %d: recovered %+v (clean %v), want the old or the rewritten log", k, got, res.Clean())
		}
		if k >= total && !reflect.DeepEqual(got, newer) {
			t.Fatalf("completed rewrite recovered %+v, want %+v", got, newer)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"": SyncBatch, "batch": SyncBatch, "always": SyncAlways, "none": SyncNone,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParsePolicy("fsync-sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
