package schemanet_test

// Native fuzz target for the session_io decoder: LoadSession consumes
// externally produced files (saved sessions travel between machines and
// versions), so arbitrary bytes must produce an error or a working
// session — never a panic, and never a session whose invariants are
// broken. Run continuously with `make fuzz`; the seed corpus mirrors
// the handwritten decoder test cases plus genuine Save and store
// snapshot output.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schemanet"
)

func FuzzLoadSession(f *testing.F) {
	net, truth := videoNet(f)

	// Seeds: every malformed-input case the decoder tests pin down…
	for _, seed := range []string{
		`{`,
		`{"version": 99}`,
		`{"history":[]}`,
		`{"version":1,"history":[{"from":"X.y","to":"Z.w","approved":true}]}`,
		`{"version":1,"history":[{"from":"Nope.productionDate","to":"BBC.date","approved":true}]}`,
		`{"version":1,"history":[{"from":"EoverI.productionDate","to":"BBC.name","approved":true}]}`,
		`{"version":1,"history":[
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`,
		`[]`, `null`, `0`, `""`, "{}",
	} {
		f.Add([]byte(seed))
	}
	// …plus a well-formed save from a real session, so mutations explore
	// the valid-prefix neighborhood.
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if c, ok := s.Suggest(); ok {
			if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				f.Fatal(err)
			}
		}
	}
	var saved strings.Builder
	if err := s.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(saved.String()))
	// The decoder also serves store recovery: seed a genuine Version 2
	// save and snapshot-shaped files (seq and annotators, both versions)
	// from the persisted-format goldens.
	for _, name := range []string{"save_v2.json", "store_v1_snapshot_after.json", "store_v2_snapshot_after.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	opts := &schemanet.Options{Seed: 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := schemanet.LoadSession(net, opts, bytes.NewReader(data))
		if err != nil {
			return // rejected input is the expected outcome
		}
		// Accepted input must yield a coherent session: finite non-negative
		// uncertainty, in-range probabilities, a usable suggest/assert loop.
		if h := restored.Uncertainty(); math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
			t.Fatalf("uncertainty %v from accepted input %q", h, data)
		}
		for c := 0; c < net.NumCandidates(); c++ {
			p, err := restored.Probability(c)
			if err != nil || p < 0 || p > 1 {
				t.Fatalf("p(%d) = %v (%v) from accepted input %q", c, p, err, data)
			}
		}
		if c, ok := restored.Suggest(); ok {
			if err := restored.Assert(c, true); err != nil {
				t.Fatalf("suggested candidate %d rejected: %v", c, err)
			}
		}
	})
}
