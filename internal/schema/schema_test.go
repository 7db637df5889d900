package schema

import (
	"strings"
	"testing"

	"schemanet/internal/graphs"
)

// videoNetwork builds the motivating example of §II-A: three video
// content providers with date-like attributes.
func videoNetwork(t *testing.T) (*Network, SchemaID, SchemaID, SchemaID) {
	t.Helper()
	b := NewBuilder()
	sa := b.AddSchema("EoverI", "productionDate", "title")
	sb := b.AddSchema("BBC", "date", "name")
	sc := b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()
	// Attribute IDs are assigned in insertion order:
	// 0 productionDate, 1 title, 2 date, 3 name, 4 releaseDate, 5 screenDate.
	b.AddCorrespondence(0, 2, 0.8)  // c1: productionDate-date
	b.AddCorrespondence(2, 4, 0.7)  // c2: date-releaseDate
	b.AddCorrespondence(0, 4, 0.6)  // c3: productionDate-releaseDate
	b.AddCorrespondence(2, 5, 0.5)  // c4: date-screenDate
	b.AddCorrespondence(0, 5, 0.55) // c5: productionDate-screenDate
	net, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return net, sa, sb, sc
}

func TestBuilderBasics(t *testing.T) {
	net, sa, sb, sc := videoNetwork(t)
	if net.NumSchemas() != 3 {
		t.Fatalf("NumSchemas = %d, want 3", net.NumSchemas())
	}
	if net.NumAttributes() != 6 {
		t.Fatalf("NumAttributes = %d, want 6", net.NumAttributes())
	}
	if net.NumCandidates() != 5 {
		t.Fatalf("NumCandidates = %d, want 5", net.NumCandidates())
	}
	if net.SchemaByID(sa).Name != "EoverI" || net.SchemaByID(sb).Name != "BBC" || net.SchemaByID(sc).Name != "DVDizzy" {
		t.Fatal("schema names scrambled")
	}
	if !net.Interaction().HasEdge(int(sa), int(sc)) {
		t.Fatal("ConnectAll missed an edge")
	}
	if got := net.FullName(0); got != "EoverI.productionDate" {
		t.Fatalf("FullName = %q", got)
	}
	mn, mx := net.AttributeRange()
	if mn != 2 || mx != 2 {
		t.Fatalf("AttributeRange = %d/%d, want 2/2", mn, mx)
	}
}

func TestCandidateCanonicalAndIndex(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	for i := 0; i < net.NumCandidates(); i++ {
		c := net.Candidate(i)
		if c.A >= c.B {
			t.Errorf("candidate %d not canonical: %v", i, c)
		}
		if got := net.CandidateIndex(c.B, c.A); got != i {
			t.Errorf("CandidateIndex reversed pair = %d, want %d", got, i)
		}
	}
	if got := net.CandidateIndex(1, 3); got != -1 {
		t.Errorf("CandidateIndex of absent pair = %d, want -1", got)
	}
}

func TestCandidatesOfIncidence(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	// Attribute 0 (productionDate) participates in c1, c3, c5.
	if got := len(net.CandidatesOf(0)); got != 3 {
		t.Fatalf("CandidatesOf(productionDate) = %d candidates, want 3", got)
	}
	// Attribute 1 (title) participates in none.
	if got := len(net.CandidatesOf(1)); got != 0 {
		t.Fatalf("CandidatesOf(title) = %d, want 0", got)
	}
	for _, i := range net.CandidatesOf(0) {
		c := net.Candidate(i)
		if c.A != 0 && c.B != 0 {
			t.Errorf("candidate %d does not touch attribute 0: %v", i, c)
		}
	}
}

func TestOther(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	c := net.Candidate(0)
	if got := net.Other(0, c.A); got != c.B {
		t.Fatalf("Other = %d, want %d", got, c.B)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint should panic")
		}
	}()
	net.Other(0, 99)
}

func TestDuplicateCandidatesMergedMaxConfidence(t *testing.T) {
	b := NewBuilder()
	b.AddSchema("s1", "a")
	b.AddSchema("s2", "b")
	b.ConnectAll()
	b.AddCorrespondence(0, 1, 0.3)
	b.AddCorrespondence(1, 0, 0.9) // same pair, reversed, higher confidence
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumCandidates() != 1 {
		t.Fatalf("NumCandidates = %d, want 1 after merge", net.NumCandidates())
	}
	if got := net.Candidate(0).Confidence; got != 0.9 {
		t.Fatalf("merged confidence = %v, want 0.9", got)
	}
}

func TestBuildValidation(t *testing.T) {
	t.Run("no schemas", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Fatal("want error for empty network")
		}
	})
	t.Run("duplicate attribute", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s", "a", "a")
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for duplicate attribute")
		}
	})
	t.Run("empty attribute name", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s", "")
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for empty attribute name")
		}
	})
	t.Run("intra-schema candidate", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s1", "a", "b")
		b.AddSchema("s2", "c")
		b.ConnectAll()
		b.AddCorrespondence(0, 1, 0.5)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for intra-schema candidate")
		}
	})
	t.Run("candidate across non-edge", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s1", "a")
		b.AddSchema("s2", "b")
		b.AddSchema("s3", "c")
		b.Connect(0, 1) // s1-s3 not connected
		b.AddCorrespondence(0, 2, 0.5)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for candidate across non-edge")
		}
	})
	t.Run("bad confidence", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s1", "a")
		b.AddSchema("s2", "b")
		b.ConnectAll()
		b.AddCorrespondence(0, 1, 1.5)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for confidence > 1")
		}
	})
	t.Run("self interaction edge", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s1", "a")
		b.Connect(0, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for self edge")
		}
	})
	t.Run("interaction size mismatch", func(t *testing.T) {
		b := NewBuilder()
		b.AddSchema("s1", "a")
		b.AddSchema("s2", "b")
		b.SetInteraction(graphs.Complete(5))
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for graph/schema count mismatch")
		}
	})
}

func TestWithCandidates(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	replacement := []Correspondence{{A: 0, B: 2, Confidence: 0.99}}
	net2, err := net.WithCandidates(replacement)
	if err != nil {
		t.Fatal(err)
	}
	if net2.NumCandidates() != 1 {
		t.Fatalf("NumCandidates = %d, want 1", net2.NumCandidates())
	}
	if net.NumCandidates() != 5 {
		t.Fatal("WithCandidates mutated the original network")
	}
	if net2.NumSchemas() != net.NumSchemas() {
		t.Fatal("schemas not carried over")
	}
}

func TestMatchingBasics(t *testing.T) {
	m := NewMatching()
	m.Add(3, 1)
	if !m.Contains(1, 3) {
		t.Fatal("Contains should be order-insensitive")
	}
	if m.Size() != 1 {
		t.Fatalf("Size = %d, want 1", m.Size())
	}
	m.Add(1, 3) // duplicate
	if m.Size() != 1 {
		t.Fatalf("Size after duplicate add = %d, want 1", m.Size())
	}
	m.Remove(3, 1)
	if m.Size() != 0 {
		t.Fatal("Remove failed")
	}
}

// matchingOf builds a matching from attribute pairs (order within each
// pair does not matter).
func matchingOf(pairs [][2]AttrID) *Matching {
	m := NewMatching()
	for _, p := range pairs {
		m.Add(p[0], p[1])
	}
	return m
}

func TestMatchingPairsSorted(t *testing.T) {
	m := matchingOf([][2]AttrID{{5, 2}, {1, 0}, {4, 3}})
	pairs := m.Pairs()
	want := [][2]AttrID{{0, 1}, {2, 5}, {3, 4}}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("Pairs() = %v, want %v", pairs, want)
		}
	}
}

func TestMatchingIntersectionAndClone(t *testing.T) {
	a := matchingOf([][2]AttrID{{0, 1}, {2, 3}, {4, 5}})
	b := matchingOf([][2]AttrID{{1, 0}, {4, 5}, {6, 7}})
	if got := a.IntersectionSize(b); got != 2 {
		t.Fatalf("IntersectionSize = %d, want 2", got)
	}
	c := a.Clone()
	c.Add(8, 9)
	if a.Contains(8, 9) {
		t.Fatal("Clone not independent")
	}
}

func TestMatchingCandidateRoundTrip(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	m := MatchingFromCandidates(net, []int{0, 2})
	idx := m.CandidateIndices(net)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("CandidateIndices = %v, want [0 2]", idx)
	}
	// A pair that is not a candidate is dropped.
	m.Add(1, 3)
	if got := len(m.CandidateIndices(net)); got != 2 {
		t.Fatalf("non-candidate pair leaked into indices: %d", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	gt := NewMatching()
	gt.Add(0, 2)
	gt.Add(2, 4)
	d := &Dataset{Name: "video", Network: net, GroundTruth: gt}

	var buf strings.Builder
	if err := EncodeDataset(&buf, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeDataset(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Name != "video" {
		t.Errorf("Name = %q", back.Name)
	}
	if back.Network.NumSchemas() != 3 || back.Network.NumAttributes() != 6 {
		t.Errorf("schemas/attrs = %d/%d", back.Network.NumSchemas(), back.Network.NumAttributes())
	}
	if back.Network.NumCandidates() != 5 {
		t.Errorf("candidates = %d, want 5", back.Network.NumCandidates())
	}
	if back.GroundTruth.Size() != 2 {
		t.Errorf("ground truth size = %d, want 2", back.GroundTruth.Size())
	}
	// Candidate confidences survive.
	i := back.Network.CandidateIndex(0, 2)
	if i < 0 || back.Network.Candidate(i).Confidence != 0.8 {
		t.Errorf("confidence lost in round trip")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown schema":  `{"name":"x","schemas":[{"name":"a","attributes":["p"]}],"edges":[["a","zzz"]]}`,
		"unknown attr":    `{"name":"x","schemas":[{"name":"a","attributes":["p"]},{"name":"b","attributes":["q"]}],"edges":[["a","b"]],"candidates":[{"from":"a.p","to":"b.nope","confidence":0.5}]}`,
		"bad ref":         `{"name":"x","schemas":[{"name":"a","attributes":["p"]},{"name":"b","attributes":["q"]}],"edges":[["a","b"]],"candidates":[{"from":"ap","to":"b.q","confidence":0.5}]}`,
		"dup schema name": `{"name":"x","schemas":[{"name":"a","attributes":["p"]},{"name":"a","attributes":["q"]}],"edges":[]}`,
	}
	for name, js := range cases {
		if _, err := DecodeDataset(strings.NewReader(js)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestDescribeCandidate(t *testing.T) {
	net, _, _, _ := videoNetwork(t)
	s := net.DescribeCandidate(0)
	if !strings.Contains(s, "EoverI.productionDate") || !strings.Contains(s, "BBC.date") {
		t.Fatalf("DescribeCandidate = %q", s)
	}
}
