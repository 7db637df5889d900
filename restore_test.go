package schemanet_test

// The restore contract. LoadSession folds a saved history into session
// construction: every component is enumerated or sampled under the
// restored feedback directly. The filter-and-refill restore it replaced
// (NewSession, then the whole history batch-applied) is kept as the
// oracle LoadSessionByFiltering, and the fold is held to it: the same
// per-component modes, bit-identical exact components and untouched
// stores, sampled estimates within the sampled ≈ exact bounds of an
// exact twin, and no resampling round at all.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"schemanet"
)

// bridgeCandidates returns two new correspondences joining the
// components of two candidates far apart in the candidate order, so a
// grown multicomp session merges components mid-history.
func bridgeCandidates(t *testing.T, net *schemanet.Network) []schemanet.Correspondence {
	t.Helper()
	n := net.NumCandidates()
	var out []schemanet.Correspondence
	for i, j := 0, n-1; i < j && len(out) < 2; i, j = i+1, j-1 {
		a, b := net.Candidate(i).A, net.Candidate(j).B
		if net.SchemaOf(a) == net.SchemaOf(b) || net.CandidateIndex(a, b) >= 0 {
			continue
		}
		out = append(out, schemanet.Correspondence{A: a, B: b, Confidence: 0.6})
	}
	if len(out) == 0 {
		t.Fatal("no bridging pair found")
	}
	return out
}

// restoreFixture drives a session to the paper's goal (uncertainty at
// most a tenth of its initial value) along its suggestions, or, when
// steps is positive, through the sampled ≈ exact harness's random
// schedule of that length, which leaves more of the network uncertain.
// It returns the saved form and the asserted candidates. grow
// interleaves a candidate arrival after a few steps, which makes the
// file a Version 2 operation stream whose leading assertions are
// followed by AddCandidates and more assertions.
func restoreFixture(t *testing.T, d *schemanet.Dataset, opts schemanet.Options, steps int, grow bool) (string, map[int]bool) {
	t.Helper()
	s, err := schemanet.NewSession(d.Network, &opts)
	if err != nil {
		t.Fatal(err)
	}
	schedule := rand.New(rand.NewSource(1)).Perm(d.Network.NumCandidates())[:steps]
	goal := 0.1 * s.Uncertainty()
	asserted := map[int]bool{}
	for step := 0; steps == 0 && s.Uncertainty() > goal || step < steps; step++ {
		if grow && step == 15 {
			if err := s.AddCandidates(bridgeCandidates(t, d.Network)); err != nil {
				t.Fatal(err)
			}
		}
		c, ok := 0, true
		if steps > 0 {
			c = schedule[step]
		} else {
			c, ok = s.Suggest()
		}
		if !ok {
			break
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(s.Network().Candidate(c))); err != nil {
			t.Fatal(err)
		}
		asserted[c] = true
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), asserted
}

func TestRestoreUnderFeedback(t *testing.T) {
	dense22 := func(t testing.TB) *schemanet.Dataset { return smallDenseNet(t, 22, 4) }
	for _, tc := range []struct {
		profile   string // harness profile whose bounds apply
		data      func(testing.TB) *schemanet.Dataset
		inference string
		steps     int // history length; 0 drives to the goal
		grow      bool
	}{
		{"multicomp", adaptiveNet, "auto", 0, false},
		{"multicomp", adaptiveNet, "sampled", 0, false},
		{"multicomp", adaptiveNet, "sampled", 40, false},
		{"dense-22", dense22, "sampled", 0, false},
		{"dense-22", dense22, "sampled", 11, false},
		{"dense-22", dense22, "exact", 0, false},
		{"multicomp", adaptiveNet, "auto", 0, true},
		{"multicomp", adaptiveNet, "sampled", 0, true},
	} {
		name := tc.profile + "/" + tc.inference
		if tc.steps > 0 {
			name += fmt.Sprintf("/%d-steps", tc.steps)
		}
		if tc.grow {
			name += "/v2"
		}
		t.Run(name, func(t *testing.T) {
			d := tc.data(t)
			base := d.Network.NumCandidates()
			opts := schemanet.Options{Inference: tc.inference, Seed: 5}
			saved, asserted := restoreFixture(t, d, opts, tc.steps, tc.grow)
			load := func(load func(*schemanet.Network, *schemanet.Options, io.Reader) (*schemanet.Session, error),
				o schemanet.Options) *schemanet.Session {
				s, err := load(d.Network, &o, strings.NewReader(saved))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fold := load(schemanet.LoadSession, opts)
			oracle := load(schemanet.LoadSessionByFiltering, opts)
			// The exact twin restores through the oracle, so the sampled
			// bounds never read the path under test on both sides.
			twin := load(schemanet.LoadSessionByFiltering,
				schemanet.Options{Inference: "exact", ExactBudget: 1 << 18, Seed: opts.Seed})

			if !tc.grow {
				if got := schemanet.Resamples(fold); got != 0 {
					t.Errorf("restore ran %d resampling rounds, want 0", got)
				}
			}
			n := fold.Network().NumCandidates()
			if fold.Components() != oracle.Components() {
				t.Fatalf("components: fold %d, oracle %d", fold.Components(), oracle.Components())
			}
			// A component is touched when the history asserted one of its
			// members or the topology grew it; only untouched stores must
			// match the oracle's instance for instance.
			touched := map[int]bool{}
			members := map[int][]int{}
			for c := 0; c < n; c++ {
				k, _ := fold.ComponentOf(c)
				members[k] = append(members[k], c)
				if asserted[c] || c >= base {
					touched[k] = true
				}
			}
			type acc struct {
				n           int
				sum, maxErr float64
				oracleSum   float64
			}
			cells := map[string]*acc{}
			exactServed, sampledTouched, untouched := 0, 0, 0
			for k := 0; k < fold.Components(); k++ {
				mf, _ := fold.InferenceOf(k)
				mo, _ := oracle.InferenceOf(k)
				if mf != mo {
					t.Errorf("component %d: fold serves %v, oracle %v", k, mf, mo)
					continue
				}
				if !touched[k] {
					untouched++
					if !schemanet.SameComponentStore(fold, oracle, k) {
						t.Errorf("untouched component %d: store differs from the oracle's", k)
					}
				}
				if mf == schemanet.InferenceExact || !touched[k] {
					for _, c := range members[k] {
						pf, _ := fold.Probability(c)
						po, _ := oracle.Probability(c)
						if pf != po {
							t.Errorf("component %d (%v, touched %v): p(%d) fold %v, oracle %v",
								k, mf, touched[k], c, pf, po)
						}
					}
					if mf == schemanet.InferenceExact {
						exactServed += len(members[k])
					}
					continue
				}
				sampledTouched++
				b := bucketOf(len(members[k]))
				cl := cells[b]
				if cl == nil {
					cl = &acc{}
					cells[b] = cl
				}
				for _, c := range members[k] {
					if asserted[c] {
						continue
					}
					pf, _ := fold.Probability(c)
					po, _ := oracle.Probability(c)
					pt, _ := twin.Probability(c)
					e := math.Abs(pf - pt)
					cl.n++
					cl.sum += e
					cl.oracleSum += math.Abs(po - pt)
					cl.maxErr = math.Max(cl.maxErr, e)
				}
			}
			t.Logf("%d components: %d untouched, %d touched sampled; %d exact-served candidates",
				fold.Components(), untouched, sampledTouched, exactServed)
			bounds := harnessBounds(t, tc.profile)
			names := make([]string, 0, len(cells))
			for b := range cells {
				names = append(names, b)
			}
			sort.Strings(names)
			for _, b := range names {
				cl := cells[b]
				if cl.n == 0 {
					continue
				}
				mad := cl.sum / float64(cl.n)
				t.Logf("bucket %-4s n=%4d  fold MAD %.4f max %.3f | oracle MAD %.4f",
					b, cl.n, mad, cl.maxErr, cl.oracleSum/float64(cl.n))
				bd, ok := bounds[b]
				if !ok {
					t.Errorf("bucket %s: no stated bound", b)
					continue
				}
				if mad > bd.stepMAD {
					t.Errorf("bucket %s: MAD %.4f against the exact twin exceeds the stated %.4f", b, mad, bd.stepMAD)
				}
				if cl.maxErr > bd.maxErr {
					t.Errorf("bucket %s: max error %.4f against the exact twin exceeds the stated %.4f", b, cl.maxErr, bd.maxErr)
				}
			}
		})
	}
}

// TestLoadSessionRestoreErrors pins the error surface of the folded
// restore: option errors come before anything in the history, and
// history errors keep their entry context — the "session entry %d" of
// an entry that does not resolve and the "replaying session history"
// wrap of one the PMN rejects.
func TestLoadSessionRestoreErrors(t *testing.T) {
	net, _ := videoNet(t)
	dup := `{"version":1,"history":[
		{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
		{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`
	live, err := schemanet.NewSession(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := attrByName(net, "BBC.date")
	b, _ := attrByName(net, "DVDizzy.releaseDate")
	if err := live.RetireCandidate(net.CandidateIndex(a, b)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		net   *schemanet.Network
		opts  *schemanet.Options
		in    string
		want  []string
		isErr error
	}{
		{"option before history", net, &schemanet.Options{Samples: -1}, dup,
			[]string{"Options.Samples"}, nil},
		{"strategy before history", net, &schemanet.Options{Strategy: "nope"}, dup,
			[]string{"unknown strategy"}, nil},
		{"duplicate entry", net, nil, dup,
			[]string{"session entry 1", "duplicate", "first at entry 0"}, nil},
		{"retired entry", live.Network(), nil,
			`{"version":1,"history":[{"from":"BBC.date","to":"DVDizzy.releaseDate","approved":true}]}`,
			[]string{"session entry 0", "not a candidate"}, nil},
		{"retired mid-stream", net, nil, `{"version":2,"ops":[
			{"kind":"retire","from":"BBC.date","to":"DVDizzy.releaseDate"},
			{"kind":"assert","from":"BBC.date","to":"DVDizzy.releaseDate","approved":true}]}`,
			[]string{"session entry 0", "not a candidate"}, nil},
		{"re-asserted after growth", net, nil, `{"version":2,"ops":[
			{"kind":"assert","from":"BBC.date","to":"DVDizzy.releaseDate","approved":true},
			{"kind":"add-schema","schema":"Zed","attrs":["when"]},
			{"kind":"assert","from":"BBC.date","to":"DVDizzy.releaseDate","approved":false}]}`,
			[]string{"replaying session history"}, schemanet.ErrAlreadyAsserted},
	}
	for _, tc := range cases {
		_, err := schemanet.LoadSession(tc.net, tc.opts, strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q missing %q", tc.name, err, frag)
			}
		}
		if tc.isErr != nil && !errors.Is(err, tc.isErr) {
			t.Errorf("%s: error %q is not %v", tc.name, err, tc.isErr)
		}
	}
}

// TestLoadSessionExactBudgetAppliesToRestoredState: under forced exact
// inference the budget bounds the enumeration of the restored state,
// not of the unconditioned network. The two-star fixture has 15
// instances, over a budget of 9, so NewSession fails; two disapprovals
// leave 8, so a session saved there restores and serves exact,
// bit-identical to an unbudgeted exact restore. One disapproval leaves
// 12, and the restore still fails with the sentinel.
func TestLoadSessionExactBudgetAppliesToRestoredState(t *testing.T) {
	net, idx := twoStarsNet(t)
	opts := twoStarsOpts()
	opts.Inference = "exact"
	if _, err := schemanet.NewSession(net, opts); !errors.Is(err, schemanet.ErrExactBudgetExceeded) {
		t.Fatalf("NewSession: err = %v, want ErrExactBudgetExceeded", err)
	}
	history := func(cands ...string) string {
		var entries []string
		for _, name := range cands {
			c := net.Candidate(idx[name])
			entries = append(entries, fmt.Sprintf(`{"from":%q,"to":%q,"approved":false}`,
				net.FullName(c.A), net.FullName(c.B)))
		}
		return `{"version":1,"history":[` + strings.Join(entries, ",") + `]}`
	}
	_, err := schemanet.LoadSession(net, opts, strings.NewReader(history("ab1")))
	if !errors.Is(err, schemanet.ErrExactBudgetExceeded) || !strings.Contains(err.Error(), "replaying session history") {
		t.Fatalf("one disapproval: err = %v, want ErrExactBudgetExceeded while replaying", err)
	}
	saved := history("ab1", "ab2")
	s, err := schemanet.LoadSession(net, opts, strings.NewReader(saved))
	if err != nil {
		t.Fatalf("two disapprovals: %v", err)
	}
	unbounded := *opts
	unbounded.ExactBudget = 0
	ref, err := schemanet.LoadSession(net, &unbounded, strings.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < s.Components(); k++ {
		if mode, _ := s.InferenceOf(k); mode != schemanet.InferenceExact {
			t.Fatalf("component %d serves %v, want exact", k, mode)
		}
	}
	for c := 0; c < net.NumCandidates(); c++ {
		p, _ := s.Probability(c)
		q, _ := ref.Probability(c)
		if p != q {
			t.Fatalf("p(%d) = %v under budget 9, %v unbudgeted", c, p, q)
		}
	}
}
