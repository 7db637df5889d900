package schemanet

// White-box tests for the batched session replay: the resample counter
// lives on the internal PMN, so these run inside the package.

import (
	"strings"
	"testing"
)

// replayNet builds the video network without the test-helper facade of
// the black-box suite.
func replayNet(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	b.AddSchema("EoverI", "productionDate")
	b.AddSchema("BBC", "date")
	b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()
	b.AddCorrespondence(0, 1, 0.85)
	b.AddCorrespondence(1, 2, 0.80)
	b.AddCorrespondence(0, 2, 0.75)
	b.AddCorrespondence(1, 3, 0.60)
	b.AddCorrespondence(0, 3, 0.55)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLoadSessionReplaysAtMostOneResampleRound is the regression test
// for the replay-cost bug: LoadSession used to push every saved
// assertion through Session.Assert, paying a full view-maintain +
// resample + recompute round per history entry. The restore now builds
// the component under the whole history, so it pays no resampling
// round at all.
func TestLoadSessionReplaysAtMostOneResampleRound(t *testing.T) {
	net := replayNet(t)
	// Pinned to sampled inference: refills are real there, while the
	// default auto mode would serve this tiny network exactly and never
	// resample at all.
	opts := &Options{Seed: 13, Samples: 100, Inference: "sampled"}
	s, err := NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Disapprovals clear store completeness, so a per-entry replay would
	// resample after each one that leaves a piece of two or more
	// members: disapproving c4 leaves {c1, c2, c3, c5} (joined by c3–c5
	// and the chain c1–c2–c5), disapproving c1 then leaves {c3, c5}.
	history := []struct {
		c       int
		approve bool
	}{
		{net.CandidateIndex(1, 3), false}, // c4
		{net.CandidateIndex(0, 1), false}, // c1
		{net.CandidateIndex(1, 2), true},  // c2
	}
	for _, h := range history {
		if err := s.Assert(h.c, h.approve); err != nil {
			t.Fatal(err)
		}
	}
	if s.pmn.Resamples() < 2 {
		t.Fatalf("test premise broken: sequential asserting did %d refills, want ≥ 2",
			s.pmn.Resamples())
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadSession(net, opts, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.pmn.Resamples(); got != 0 {
		t.Fatalf("restore did %d resampling rounds, want 0", got)
	}
	if got, want := restored.pmn.Feedback().Count(), len(history); got != want {
		t.Fatalf("replayed feedback count = %d, want %d", got, want)
	}
	for _, h := range history {
		want := 0.0
		if h.approve {
			want = 1
		}
		got, err := restored.Probability(h.c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replayed p(%d) = %v, want %v", h.c, got, want)
		}
	}
}

// TestLoadSessionBatchRejectsDuplicateHistory: a corrupted save with
// the same correspondence asserted twice must be rejected, not half
// applied.
func TestLoadSessionBatchRejectsDuplicateHistory(t *testing.T) {
	net := replayNet(t)
	js := `{"version":1,"history":[
		{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
		{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`
	if _, err := LoadSession(net, &Options{Inference: "exact"}, strings.NewReader(js)); err == nil {
		t.Fatal("want error for duplicate history entries")
	}
}
