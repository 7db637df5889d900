package constraints

import (
	"math/rand"
	"strings"
	"testing"

	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// twoTriangleNet builds two disconnected copies of the video-network
// triangle: six schemas, interaction edges only within each triple, ten
// candidates — five per triangle.
func twoTriangleNet(t testing.TB) *schema.Network {
	t.Helper()
	b := schema.NewBuilder()
	for g := 0; g < 2; g++ {
		prefix := string(rune('A' + g))
		s1 := b.AddSchema(prefix+"EoverI", "productionDate")
		s2 := b.AddSchema(prefix+"BBC", "date")
		s3 := b.AddSchema(prefix+"DVDizzy", "releaseDate", "screenDate")
		b.Connect(s1, s2)
		b.Connect(s2, s3)
		b.Connect(s1, s3)
		base := schema.AttrID(g * 4)
		b.AddCorrespondence(base+0, base+1, 0.9)
		b.AddCorrespondence(base+1, base+2, 0.8)
		b.AddCorrespondence(base+0, base+2, 0.7)
		b.AddCorrespondence(base+1, base+3, 0.6)
		b.AddCorrespondence(base+0, base+3, 0.5)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestComponentsVideoNetSingle(t *testing.T) {
	v := buildVideoNet(t)
	parts := Default(v.net).Components()
	if got := parts.NumComponents(); got != 1 {
		t.Fatalf("video network components = %d, want 1 (triangle couples everything)", got)
	}
	if !parts.Trivial() {
		t.Fatal("single component must report Trivial")
	}
}

func TestComponentsTwoTriangles(t *testing.T) {
	net := twoTriangleNet(t)
	parts := Default(net).Components()
	if got := parts.NumComponents(); got != 2 {
		t.Fatalf("components = %d, want 2 (disconnected triangles)", got)
	}
	if parts.NumCandidates() != net.NumCandidates() {
		t.Fatalf("partition universe = %d, want %d", parts.NumCandidates(), net.NumCandidates())
	}
	for k := 0; k < 2; k++ {
		if got := len(parts.Members(k)); got != 5 {
			t.Fatalf("component %d has %d members, want 5", k, got)
		}
	}
	// Components are ordered by smallest member and members are ascending.
	if parts.Members(0)[0] != 0 || parts.Members(1)[0] != 5 {
		t.Fatalf("component ordering wrong: %v / %v", parts.Members(0), parts.Members(1))
	}
	for c := 0; c < 5; c++ {
		if parts.ComponentOf(c) != 0 || parts.ComponentOf(c+5) != 1 {
			t.Fatalf("candidate-to-component map wrong at %d", c)
		}
	}
}

// TestComponentsWholeTrivial pins the monolithic reference: a Whole fork
// of an engine whose Γ decomposes keeps the one-component partition,
// also after it adopts a recompilation of the retired, then grown,
// network, while the engines it adopts split.
func TestComponentsWholeTrivial(t *testing.T) {
	net := twoTriangleNet(t)
	e := Default(net)
	whole := e.Whole()
	if !whole.Components().Trivial() {
		t.Fatal("a Whole fork must report the trivial partition")
	}
	if e.Components().Trivial() {
		t.Fatal("Whole must not change the partition of the engine it forked from")
	}
	if got := whole.Fork().Components(); got != whole.Components() {
		t.Fatal("forks of a Whole fork must share its partition")
	}
	adopt := func(step string) {
		t.Helper()
		src := Default(net)
		whole.Adopt(src)
		n := net.NumCandidates()
		if p := whole.Components(); !p.Trivial() || p.NumCandidates() != n {
			t.Fatalf("after %s: %d components over %d candidates, want 1 over %d",
				step, p.NumComponents(), p.NumCandidates(), n)
		}
		if got := whole.Fork().Components(); got != whole.Components() {
			t.Fatalf("after %s: forks of a Whole fork must share its partition", step)
		}
		if src.Components().Trivial() {
			t.Fatalf("after %s: the adopted engine must keep its own partition", step)
		}
	}
	if err := net.RetireCandidate(0); err != nil {
		t.Fatal(err)
	}
	adopt("a retire")
	// A candidate bridging the triangles: it conflicts with nothing, so
	// it lands in a component of its own.
	if _, err := net.AppendCandidates([]schema.Correspondence{{A: 4, B: 2, Confidence: 0.4}}); err != nil {
		t.Fatal(err)
	}
	adopt("growth")
}

// The constraint shapes NewEngine rejects. Each wraps a shipped
// constraint and hides or replaces what the index needs from it.
type (
	// shapeless compiles to neither a pairwise nor a gated form.
	shapeless struct{ Constraint }
	// bare has only the Constraint methods: no ForEachChain.
	bare struct{ Constraint }
)

func (shapeless) Compile() Compiled { return Compiled{} }

// TestNewEngineRejectsUnsupportedShapes: every constraint the compiled
// index cannot run is refused at construction, with a panic naming it.
func TestNewEngineRejectsUnsupportedShapes(t *testing.T) {
	net := twoTriangleNet(t)
	cases := []struct {
		name string
		con  Constraint
	}{
		{"neither shape", shapeless{NewCycle(net, DefaultMaxCycleLen)}},
		{"gated without ForEachChain", bare{NewCycle(net, DefaultMaxCycleLen)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if r == nil || !strings.Contains(msg, tc.con.Name()) {
					t.Fatalf("NewEngine panicked with %v, want a panic naming %q", r, tc.con.Name())
				}
			}()
			NewEngine(net, NewOneToOne(net), tc.con)
		})
	}
}

// TestComponentsCoverViolations is the safety property the decomposed
// PMN relies on: on random networks, every violation of every sampled
// instance (and of the full instance) lies inside one component.
func TestComponentsCoverViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.3),
			datagen.DefaultSyntheticOpts(70), rng)
		if err != nil {
			t.Fatal(err)
		}
		e := Default(d.Network)
		parts := e.Components()
		check := func(v Violation) {
			k := parts.ComponentOf(v.Cands[0])
			for _, c := range v.Cands[1:] {
				if parts.ComponentOf(c) != k {
					t.Fatalf("trial %d: violation %v spans components %d and %d",
						trial, v.Cands, k, parts.ComponentOf(c))
				}
			}
		}
		for _, v := range e.Violations(e.FullInstance()) {
			check(v)
		}
		// Random subsets exercise ConflictsWith-driven violations too.
		inst := e.NewInstance()
		for c := 0; c < d.Network.NumCandidates(); c++ {
			if rng.Intn(2) == 0 {
				inst.Add(c)
			}
		}
		for c := 0; c < d.Network.NumCandidates(); c++ {
			for _, v := range e.ConflictsWith(inst, c) {
				check(v)
			}
		}
	}
}

// TestComponentsFactorizeMaximize: with a deterministic visit order,
// global Maximize equals the union of per-component Maximize runs
// restricted by excluding the complement — the factorization the
// component-restricted sampler walk builds on.
func TestComponentsFactorizeMaximize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.3),
		datagen.DefaultSyntheticOpts(80), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := Default(d.Network)
	parts := e.Components()
	if parts.Trivial() {
		t.Skip("generated network has a single component; factorization is vacuous")
	}
	n := d.Network.NumCandidates()

	global := e.NewInstance()
	e.Maximize(global, nil, nil)

	union := e.NewInstance()
	for k := 0; k < parts.NumComponents(); k++ {
		mask := FromIndicesFor(d.Network, parts.Members(k)...)
		notMask := mask.Clone()
		notMask.SetAll()
		notMask.DifferenceWith(mask)
		sub := e.NewInstance()
		e.Maximize(sub, notMask, nil)
		union.UnionWith(sub)
	}
	if !global.Equal(union) {
		t.Fatalf("global Maximize %v != union of per-component Maximize %v (n=%d)",
			global, union, n)
	}
}
