package schemanet_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// Sessions opened on one caller *Network share one compiled copy of it
// until their first topology op (DESIGN.md, "One compiled Γ per base
// network"). These tests hold the sharing to three promises: a topology
// op on one session is invisible to every other session and to the
// caller's network; growing the caller's network in place makes the
// next session compile the grown network; and concurrent first use
// builds one compiled copy, equal to serial construction.

// topoSurface is what every session surface offers the isolation test.
type topoSurface interface {
	Network() *schemanet.Network
	AddSchema(name string, attrs ...string) error
	AddCandidates([]schemanet.Correspondence) error
	RetireCandidate(c int) error
}

// observed is everything the isolation test compares of the session
// that did not run the op.
type observed struct {
	net   *schemanet.Network
	sig   string
	comps int // -1 on DurableSession, which has no Components
	viol  int
	probs []uint64 // math.Float64bits of every candidate's probability
}

// netSig renders a network's full content: schemas, attributes,
// candidates with confidences, and retirements.
func netSig(net *schemanet.Network) string {
	var b strings.Builder
	for _, s := range net.Schemas() {
		fmt.Fprintf(&b, "%s%v;", s.Name, s.Attrs)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		cand := net.Candidate(c)
		fmt.Fprintf(&b, "%d-%d:%v:%v;", cand.A, cand.B, cand.Confidence, net.Retired(c))
	}
	return b.String()
}

// observe reads a session's network, partition, violations and
// probabilities through accessors that differ per surface.
func observe(t *testing.T, net *schemanet.Network, comps, viol int, prob func(int) (float64, error)) observed {
	t.Helper()
	o := observed{net: net, sig: netSig(net), comps: comps, viol: viol}
	for c := 0; c < net.NumCandidates(); c++ {
		p, err := prob(c)
		if err != nil {
			t.Fatalf("probability %d: %v", c, err)
		}
		o.probs = append(o.probs, math.Float64bits(p))
	}
	return o
}

func observeSession(t *testing.T, s *schemanet.Session) observed {
	return observe(t, s.Network(), s.Components(), s.Violations(), s.Probability)
}

func observeConcurrent(t *testing.T, cs *schemanet.ConcurrentSession) observed {
	return observe(t, cs.Network(), cs.Components(), cs.Violations(), cs.Probability)
}

func observeDurable(t *testing.T, ds *schemanet.DurableSession) observed {
	v, err := ds.Violations()
	if err != nil {
		t.Fatal(err)
	}
	return observe(t, ds.Network(), -1, v, ds.Probability)
}

func sameObserved(t *testing.T, label string, got, want observed) {
	t.Helper()
	switch {
	case got.net != want.net:
		t.Fatalf("%s: Network() changed pointer", label)
	case got.sig != want.sig:
		t.Fatalf("%s: network content changed:\n got %s\nwant %s", label, got.sig, want.sig)
	case got.comps != want.comps:
		t.Fatalf("%s: Components %d, want %d", label, got.comps, want.comps)
	case got.viol != want.viol:
		t.Fatalf("%s: Violations %d, want %d", label, got.viol, want.viol)
	}
	for c := range want.probs {
		if got.probs[c] != want.probs[c] {
			t.Fatalf("%s: P(%d) = %v, want %v", label, c,
				math.Float64frombits(got.probs[c]), math.Float64frombits(want.probs[c]))
		}
	}
}

// sharedTopoOps are the three topology ops, run on the base network
// multiVideoNet(t, 2): candidate 0 ↔ 5 bridges the two groups, and
// candidate 4 is never asserted by the pairs below.
var sharedTopoOps = []struct {
	name string
	run  func(topoSurface) error
}{
	{"add-schema", func(s topoSurface) error { return s.AddSchema("Late", "when", "where") }},
	{"add-candidates", func(s topoSurface) error {
		return s.AddCandidates([]schemanet.Correspondence{{A: 0, B: 5, Confidence: 0.5}})
	}},
	{"retire", func(s topoSurface) error { return s.RetireCandidate(4) }},
}

// TestSharedBaseIsolation: two sessions on one base network share its
// compiled copy, and a topology op on one of them changes nothing the
// other serves — its Network() (pointer and content), Components(),
// Violations and every Probability stay bit-identical — nor the
// caller's network. Covered on every surface: two Sessions, a Session
// beside a LoadSession (both ways round), two DurableSessions of one
// store, and a ConcurrentSession whose first topology op runs while a
// Suggest reader does (the race detector watches that one).
func TestSharedBaseIsolation(t *testing.T) {
	opts := &schemanet.Options{Seed: 3}
	type pair struct {
		name string
		// open builds the session that runs the op and an observer of the
		// other one, on net; reader, when non-nil, is a read loop to run
		// against the mutated session during the op.
		open func(t *testing.T, net *schemanet.Network) (mut topoSurface, other func() observed, reader func())
	}
	newSession := func(t *testing.T, net *schemanet.Network) *schemanet.Session {
		s, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Assert(1, true); err != nil {
			t.Fatal(err)
		}
		return s
	}
	loadSession := func(t *testing.T, net *schemanet.Network) *schemanet.Session {
		var buf bytes.Buffer
		if err := newSession(t, net).Save(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := schemanet.LoadSession(net, opts, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pairs := []pair{
		{"session/session", func(t *testing.T, net *schemanet.Network) (topoSurface, func() observed, func()) {
			a, b := newSession(t, net), newSession(t, net)
			return a, func() observed { return observeSession(t, b) }, nil
		}},
		{"session/load", func(t *testing.T, net *schemanet.Network) (topoSurface, func() observed, func()) {
			a, b := newSession(t, net), loadSession(t, net)
			return a, func() observed { return observeSession(t, b) }, nil
		}},
		{"load/session", func(t *testing.T, net *schemanet.Network) (topoSurface, func() observed, func()) {
			a, b := loadSession(t, net), newSession(t, net)
			return a, func() observed { return observeSession(t, b) }, nil
		}},
		{"durable/durable", func(t *testing.T, net *schemanet.Network) (topoSurface, func() observed, func()) {
			st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: wal.NewMemFS(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			a, err := st.Session("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := st.Session("b")
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Assert(1, true); err != nil {
				t.Fatal(err)
			}
			return a, func() observed { return observeDurable(t, b) }, nil
		}},
		{"concurrent/concurrent", func(t *testing.T, net *schemanet.Network) (topoSurface, func() observed, func()) {
			a, err := schemanet.NewConcurrentSession(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := schemanet.NewConcurrentSession(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			reader := func() {
				for i := 0; i < 50; i++ {
					a.Suggest()
					if _, err := a.Probability(i % 10); err != nil {
						t.Errorf("probability during the topology op: %v", err)
					}
				}
			}
			return a, func() observed { return observeConcurrent(t, b) }, reader
		}},
	}
	for _, p := range pairs {
		for _, op := range sharedTopoOps {
			t.Run(p.name+"/"+op.name, func(t *testing.T) {
				net, _ := multiVideoNet(t, 2)
				callerSig := netSig(net)
				mut, other, reader := p.open(t, net)
				before := other()
				if mut.Network() != before.net {
					t.Fatal("sessions on one network do not share its compiled copy")
				}
				if before.net == net {
					t.Fatal("a session serves the caller's network itself")
				}
				var wg sync.WaitGroup
				if reader != nil {
					wg.Add(1)
					go func() {
						defer wg.Done()
						reader()
					}()
				}
				if err := op.run(mut); err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				if got := mut.Network(); got == before.net || netSig(got) == before.sig {
					t.Fatal("the op did not give the session a grown network of its own")
				}
				sameObserved(t, "other session", other(), before)
				if netSig(net) != callerSig {
					t.Fatal("the caller's network changed")
				}
			})
		}
	}
}

// TestSharedBaseInvalidation: growing the caller's network in place
// after sessions exist makes the next NewSession and LoadSession compile
// the grown network — equal to a session on a fresh copy of it — while
// the existing session keeps the network it started from. A session
// under other constraint options compiles its own copy too.
func TestSharedBaseInvalidation(t *testing.T) {
	net, _ := multiVideoNet(t, 2)
	opts := &schemanet.Options{Seed: 5}
	old, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Assert(1, true); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := old.Save(&saved); err != nil {
		t.Fatal(err)
	}
	before := observeSession(t, old)

	if _, err := net.AppendSchema("Late", "when"); err != nil {
		t.Fatal(err)
	}
	when := schemanet.AttrID(net.NumAttributes() - 1)
	if _, err := net.AppendCandidates([]schemanet.Correspondence{{A: 0, B: when, Confidence: 0.7}}); err != nil {
		t.Fatal(err)
	}
	if err := net.RetireCandidate(3); err != nil {
		t.Fatal(err)
	}

	loaded, err := schemanet.LoadSession(net, opts, bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if netSig(loaded.Network()) != netSig(net) {
		t.Fatal("LoadSession after in-place growth did not compile the grown network")
	}
	fresh, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Network() != loaded.Network() {
		t.Fatal("NewSession and LoadSession after the growth do not share one compiled copy")
	}
	ref, err := schemanet.NewSession(net.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := observeSession(t, ref)
	want.net = fresh.Network()
	sameObserved(t, "session on the grown network", observeSession(t, fresh), want)
	sameObserved(t, "session opened before the growth", observeSession(t, old), before)

	// Other constraint options: a compiled copy of their own.
	acyclic := &schemanet.Options{Seed: 5, DisableCycle: true}
	s, err := schemanet.NewSession(net, acyclic)
	if err != nil {
		t.Fatal(err)
	}
	if s.Network() == fresh.Network() {
		t.Fatal("sessions under different constraint options share one compiled copy")
	}
	ref, err = schemanet.NewSession(net.Clone(), acyclic)
	if err != nil {
		t.Fatal(err)
	}
	want = observeSession(t, ref)
	want.net = s.Network()
	sameObserved(t, "session under other constraint options", observeSession(t, s), want)
}

// TestSharedBaseConcurrentFirstBuild: eight goroutines opening sessions
// on one fresh network at once — half NewSession, half LoadSession —
// build one compiled copy between them, and every session equals the
// one serial construction gives.
func TestSharedBaseConcurrentFirstBuild(t *testing.T) {
	proto, _ := multiVideoNet(t, 3)
	opts := &schemanet.Options{Seed: 7}
	s, err := schemanet.NewSession(proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, 6, 11} {
		if err := s.Assert(c, c != 6); err != nil {
			t.Fatal(err)
		}
	}
	var saved bytes.Buffer
	if err := s.Save(&saved); err != nil {
		t.Fatal(err)
	}
	// Serial references, each on a network of its own.
	newRef, err := schemanet.NewSession(proto.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	loadRef, err := schemanet.LoadSession(proto.Clone(), opts, bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	net := proto.Clone()
	const workers = 8
	sessions := make([]*schemanet.Session, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if w%2 == 0 {
				sessions[w], err = schemanet.NewSession(net, opts)
			} else {
				sessions[w], err = schemanet.LoadSession(net, opts, bytes.NewReader(saved.Bytes()))
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	shared := sessions[0].Network()
	for w, s := range sessions {
		if s.Network() != shared {
			t.Fatalf("session %d compiled a copy of its own", w)
		}
		ref := newRef
		if w%2 == 1 {
			ref = loadRef
		}
		want := observeSession(t, ref)
		want.net = shared
		sameObserved(t, fmt.Sprintf("session %d", w), observeSession(t, s), want)
	}
}
