package schemanet_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"schemanet"
)

func TestSessionSaveLoadRoundTrip(t *testing.T) {
	net, truth := videoNet(t)
	opts := &schemanet.Options{Inference: "exact", Seed: 21}
	s, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Make two assertions, save.
	for i := 0; i < 2; i++ {
		c, ok := s.Suggest()
		if !ok {
			t.Fatal("nothing to suggest")
		}
		if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := schemanet.LoadSession(net, opts, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Effort(), s.Effort(); got != want {
		t.Fatalf("restored effort %v, want %v", got, want)
	}
	if got, want := restored.Uncertainty(), s.Uncertainty(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("restored uncertainty %v, want %v", got, want)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, restored, c), mustProb(t, s, c); math.Abs(got-want) > 1e-9 {
			t.Fatalf("restored p(%d) = %v, want %v", c, got, want)
		}
	}
	// The restored session keeps working.
	if c, ok := restored.Suggest(); ok {
		if err := restored.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveKeepsRestoredAnnotators: a session restored from a store
// snapshot (an annotated history, Version 1 or 2) saves that history
// back with its annotators — the file Save writes is the snapshot minus
// its covered seq. The snapshots are the persisted-format goldens.
func TestSaveKeepsRestoredAnnotators(t *testing.T) {
	net, _ := videoNet(t)
	seqLine := regexp.MustCompile(`(?m)^  "seq": [0-9]+,\n`)
	for _, name := range []string{"store_v1_snapshot_after.json", "store_v2_snapshot_after.json"} {
		snap, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact"}, bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want := seqLine.ReplaceAll(snap, nil); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: Save after restore:\n%s\nwant:\n%s", name, buf.Bytes(), want)
		}
	}
}

func TestSessionSaveEmpty(t *testing.T) {
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact"}, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Effort() != 0 {
		t.Fatal("fresh session should have zero effort")
	}
}

func TestLoadSessionErrors(t *testing.T) {
	net, _ := videoNet(t)
	cases := map[string]string{
		"bad json":        `{`,
		"bad version":     `{"version": 99}`,
		"missing version": `{"history":[]}`,
		"unknown attr":    `{"version":1,"history":[{"from":"X.y","to":"Z.w","approved":true}]}`,
		"unknown schema": `{"version":1,"history":[
			{"from":"Nope.productionDate","to":"BBC.date","approved":true}]}`,
		"non-candidate": `{"version":1,"history":[
			{"from":"EoverI.productionDate","to":"BBC.name","approved":true}]}`,
	}
	for name, js := range cases {
		if _, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact"}, strings.NewReader(js)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestLoadSessionErrorContext: decoder errors name where the problem
// is — byte offset for JSON-level failures, history index and field
// for records that do not resolve — so a corrupt file is diagnosable.
func TestLoadSessionErrorContext(t *testing.T) {
	net, _ := videoNet(t)
	cases := []struct {
		name, in string
		want     []string
	}{
		{"syntax offset", `{"version":1,"history":[}`, []string{"byte offset"}},
		{"type offset", `{"version":1,"history":[{"from":3}]}`, []string{"byte offset", "history.from"}},
		{"unknown from", `{"version":1,"history":[{"from":"X.y","to":"BBC.date","approved":true}]}`,
			[]string{"entry 0", `field "from"`, `"X.y"`}},
		{"unknown to", `{"version":1,"history":[
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
			{"from":"BBC.date","to":"Zed.w","approved":true}]}`,
			[]string{"entry 1", `field "to"`, `"Zed.w"`}},
		{"empty field", `{"version":1,"history":[{"from":"","to":"BBC.date"}]}`,
			[]string{"entry 0", `field "from"`, "empty"}},
		{"non-candidate", `{"version":1,"history":[{"from":"DVDizzy.releaseDate","to":"DVDizzy.screenDate","approved":true}]}`,
			[]string{"entry 0", "not a candidate"}},
		{"duplicate", `{"version":1,"history":[
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
			{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`,
			[]string{"entry 1", "duplicate", "first at entry 0"}},
	}
	for _, tc := range cases {
		_, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact"}, strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q missing %q", tc.name, err, frag)
			}
		}
	}
}

// TestDuplicateSchemaNameRejected: duplicate schema names used to slip
// through Builder.AddSchema and make rendered attribute names ("S.a")
// ambiguous, so a saved session could replay someone else's assertion.
// Both construction surfaces — Builder.Build and the live
// Session.AddSchema — must reject the duplicate outright.
func TestDuplicateSchemaNameRejected(t *testing.T) {
	cases := []struct {
		name    string
		schemas []string
		wantErr bool
	}{
		{"distinct names", []string{"S", "T", "U"}, false},
		{"duplicate pair", []string{"S", "S", "T"}, true},
		{"duplicate later", []string{"S", "T", "T"}, true},
		{"triple duplicate", []string{"S", "S", "S"}, true},
	}
	for _, tc := range cases {
		b := schemanet.NewBuilder()
		var ids []schemanet.SchemaID
		for _, name := range tc.schemas {
			ids = append(ids, b.AddSchema(name, "a"))
		}
		b.Connect(ids[0], ids[len(ids)-1])
		_, err := b.Build()
		if tc.wantErr && err == nil {
			t.Errorf("%s: Build accepted duplicate schema names", tc.name)
		}
		if tc.wantErr && err != nil && !strings.Contains(err.Error(), "duplicate schema name") {
			t.Errorf("%s: error %q does not name the duplicate", tc.name, err)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: Build failed: %v", tc.name, err)
		}
	}

	// The live mutator rejects a duplicate too, leaving the session
	// usable.
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSchema(net.Schemas()[0].Name, "x"); err == nil ||
		!strings.Contains(err.Error(), "duplicate schema name") {
		t.Fatalf("Session.AddSchema duplicate name: err = %v, want duplicate rejection", err)
	}
	if _, ok := s.Suggest(); !ok {
		t.Fatal("session unusable after rejected AddSchema")
	}
}

// TestSessionSaveLoadMultiComponent: the round trip must reproduce
// identical probabilities on a decomposed (multi-component) session
// under exact inference, including replayed disapprovals that trigger
// per-component re-enumeration.
func TestSessionSaveLoadMultiComponent(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	opts := &schemanet.Options{Inference: "exact", Seed: 19}
	s, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Components() != 3 {
		t.Fatalf("components = %d, want 3", s.Components())
	}
	// Assert something in every component, approvals and disapprovals.
	for i := 0; i < 6; i++ {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := schemanet.LoadSession(net, opts, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, restored, c), mustProb(t, s, c); math.Abs(got-want) > 1e-9 {
			t.Fatalf("restored p(%d) = %v, want %v", c, got, want)
		}
	}
	if got, want := restored.Uncertainty(), s.Uncertainty(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("restored uncertainty %v, want %v", got, want)
	}
}
