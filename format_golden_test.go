package schemanet_test

// Golden pins of the persisted formats: the bytes Session.Save writes
// (Version 1 for an assertion-only session, Version 2 once the topology
// changed) and the bytes a SessionStore leaves on disk (store_v*_wal.log:
// a session directory's one file, holding the whole history). Any
// change to these files is a file-format change and must be deliberate:
// regenerate with
//
//	go test -run TestPersistedFormatGolden -update-golden .
//
// and say so in CHANGES.md.
//
// The other store_* goldens are what earlier versions of the store left
// on disk for the same scripts — a snapshot.json beside a WAL tail,
// before and after a compaction. They are fixtures, never regenerated:
// the legacy-migration crash sweep (TestStoreLegacyMigrationCrashAtEveryOp)
// opens them, and FuzzLoadSession and TestSaveKeepsRestoredAnnotators
// read the snapshots as saved sessions.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the persisted-format golden files")

// checkGolden compares got with testdata/golden/name (rewriting it
// first under -update-golden).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\n--- got ---\n%q\n--- want ---\n%q", name, got, want)
	}
}

// goldenFormatDriver is the mutating surface the golden scripts use,
// shared by a plain Session and a DurableSession.
type goldenFormatDriver interface {
	Suggest() (int, bool)
	AddSchema(name string, attrs ...string) error
	AddCandidates(cs []schemanet.Correspondence) error
	RetireCandidate(c int) error
}

// goldenScript drives d through a fixed interleaving: suggested
// assertions answered from truth (via assert), and — when grow is set —
// a new schema, two new candidates into it, and the retirement of the
// highest-indexed unasserted candidate, each between assertions.
func goldenScript(t *testing.T, d goldenFormatDriver, net func() *schemanet.Network,
	truth *schemanet.Matching, grow bool, assert func(step, c int, ok bool) error) {
	t.Helper()
	asserted := map[int]bool{}
	step := 0
	suggestAndAssert := func() {
		t.Helper()
		c, ok := d.Suggest()
		if !ok {
			t.Fatal("no suggestion left")
		}
		n := net()
		if err := assert(step, c, truth.ContainsCorrespondence(n.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		asserted[c] = true
		step++
	}
	suggestAndAssert()
	if grow {
		base := schemanet.AttrID(net().NumAttributes())
		if err := d.AddSchema("Archive", "year", "released"); err != nil {
			t.Fatal(err)
		}
		suggestAndAssert()
		if err := d.AddCandidates([]schemanet.Correspondence{
			{A: base + 1, B: 2, Confidence: 0.7},
			{A: base, B: 1, Confidence: 0.4},
		}); err != nil {
			t.Fatal(err)
		}
		suggestAndAssert()
		n := net()
		retire := -1
		for c := n.NumCandidates() - 1; c >= 0; c-- {
			if !asserted[c] && !n.Retired(c) {
				retire = c
				break
			}
		}
		if err := d.RetireCandidate(retire); err != nil {
			t.Fatal(err)
		}
	}
	suggestAndAssert()
	suggestAndAssert()
}

// goldenStore runs the golden script (grown or not) on a durable
// session "golden" of a fresh in-memory store, with annotators, closes
// the store, and returns the session's history and the bytes of its
// WAL. The session directory must hold no snapshot.
func goldenStore(t *testing.T, grow bool) ([]schemanet.AssertionRecord, []byte) {
	t.Helper()
	net, truth := videoNet(t)
	fsys := wal.NewMemFS()
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
		Session: &schemanet.Options{Inference: "exact", Seed: 3}, FS: fsys, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err := st.Session("golden")
	if err != nil {
		t.Fatal(err)
	}
	annotators := []string{"alice", "bob", "", "carol"}
	goldenScript(t, ds, ds.Network, truth, grow, func(step, c int, ok bool) error {
		return ds.AssertAs(annotators[step%len(annotators)], c, ok)
	})
	hist, err := ds.History()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("store", "golden")
	if _, err := fsys.ReadFile(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("store wrote a snapshot (read err %v)", err)
	}
	data, err := fsys.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return hist, data
}

// TestPersistedFormatGolden pins the exact bytes of Save (Version 1 and
// Version 2) and of a store's wal.log after a closed session, with
// annotators; the WAL must recover to the session's history.
func TestPersistedFormatGolden(t *testing.T) {
	opts := &schemanet.Options{Inference: "exact", Seed: 3}
	for _, tc := range []struct {
		name string
		grow bool
	}{{"save_v1.json", false}, {"save_v2.json", true}} {
		t.Run(tc.name, func(t *testing.T) {
			net, truth := videoNet(t)
			s, err := schemanet.NewSession(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			goldenScript(t, s, s.Network, truth, tc.grow, func(_, c int, ok bool) error {
				return s.Assert(c, ok)
			})
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}

	for _, tc := range []struct {
		name string
		grow bool
	}{{"store_v1", false}, {"store_v2", true}} {
		t.Run(tc.name, func(t *testing.T) {
			hist, data := goldenStore(t, tc.grow)
			checkGolden(t, tc.name+"_wal.log", data)
			if recs, res := wal.Recover(data); !res.Clean() || !reflect.DeepEqual(recs, hist) {
				t.Fatalf("WAL recovers to %+v (clean %v), want the history %+v", recs, res.Clean(), hist)
			}
		})
	}
}
