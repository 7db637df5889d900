package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"schemanet"
	"schemanet/internal/datagen"
)

type driverKind int

const (
	soloDriver    driverKind = iota // one annotator on a plain Session
	crowdDriver                     // two annotators on one ConcurrentSession
	durableDriver                   // one driver over many DurableSessions in one SessionStore
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: an annotator asks for the next Suggest only after its
// Assert returned, and answers from the generated ground truth.
type workload struct {
	name string
	why  string
	kind driverKind
	// gen builds one network of about size candidates. Every unit of a
	// run (a session; for durable-tenants a store round) gets its own
	// network, so no metric hangs on the quirks of one network.
	gen  func(size int, rng *rand.Rand) (*schemanet.Dataset, error)
	size int

	// durable-tenants only: tenants per store, the resident-pool bound
	// (below tenants, so the LRU evicts), and steps per burst.
	tenants, maxOpen, burst int
}

var workloads = []*workload{
	{
		name: "solo-dense",
		why: "one component spans the network, so every refill re-walks the whole constraint graph and every Suggest " +
			"ranks hundreds of members: sampling, constraints and core ranking do most of the work",
		kind: soloDriver, gen: denseNetwork, size: 256,
	},
	{
		name: "solo-manysmall",
		why: "~160 components of ~3 candidates, mostly exact: a step is so cheap that the session surface's fixed " +
			"per-call cost dominates; the contrast workload for sampling and ranking changes",
		kind: soloDriver, gen: multicompNetwork, size: 512,
	},
	{
		name: "crowd-hubs",
		why: "two annotators share one ConcurrentSession on a hub-heavy network: Suggest re-ranks hub components " +
			"through lazy top-k while Assert writes them (read path beside write path, locks, collisions)",
		kind: crowdDriver, gen: hubsNetwork, size: 512,
	},
	{
		name: "durable-tenants",
		why: "bursts across more DurableSessions than the store keeps resident, a sync per assert: WAL appends " +
			"dominate the writes and snapshot plus replay the reopens, so internal/wal is measured both ways",
		kind: durableDriver, gen: exactOnly(multicompNetwork), size: 256,
		tenants: 3, maxOpen: 2, burst: 40,
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// unitSeed derives unit i's seed from the run's seed. It seeds both the
// unit's network and its sessions' Options.Seed.
func unitSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// network is a generated dataset plus the oracle's answer key.
type network struct {
	d *schemanet.Dataset
	// truth[c] is the expert's answer for candidate c.
	truth []bool
	// reachable is the ground truth restricted to the candidate set: the
	// best matching any reconciliation can instantiate.
	reachable *schemanet.Matching
}

// network generates unit i's network. Generation is outside every
// timing.
func (w *workload) network(seed int64, i int) (*network, error) {
	d, err := w.gen(w.size, rand.New(rand.NewSource(unitSeed(seed, i))))
	if err != nil {
		return nil, fmt.Errorf("generating network %d: %w", i, err)
	}
	net := d.Network
	nw := &network{d: d, truth: make([]bool, net.NumCandidates()), reachable: schemanet.NewMatching()}
	for c := range nw.truth {
		cand := net.Candidate(c)
		if d.GroundTruth.ContainsCorrespondence(cand) {
			nw.truth[c] = true
			nw.reachable.Add(cand.A, cand.B)
		}
	}
	return nw, nil
}

// sessionOptions gives unit i its session options. Workers is 1: the
// hosts this runs on have two CPUs, and the crowd workload already keeps
// both busy.
func sessionOptions(seed int64, i int) schemanet.Options {
	return schemanet.Options{Seed: unitSeed(seed, i), Workers: 1}
}

// denseNetwork is the single-component synthetic shape the repository's
// micro-benchmarks use: 8 schemas, conflict-heavy decoys.
func denseNetwork(size int, rng *rand.Rand) (*schemanet.Dataset, error) {
	attrs := max(size/16, 12)
	return datagen.SyntheticNetwork(datagen.Profile{
		Name: "dense", Domain: datagen.PurchaseOrder(),
		NumSchemas: 8, MinAttrs: attrs, MaxAttrs: attrs + 4,
		PoolFactor: 1.3, SynonymProb: 0.2, AbbrevProb: 0.15, EdgeProb: 0.5,
	}, datagen.SyntheticOpts{TargetCount: size, Precision: 0.67, ConflictBias: 0.7, StrictCount: true}, rng)
}

// multicompNetwork is the small-component-heavy profile.
func multicompNetwork(size int, rng *rand.Rand) (*schemanet.Dataset, error) {
	return datagen.SyntheticNetwork(datagen.MultiComp(),
		datagen.SyntheticOpts{TargetCount: size, Precision: 0.67, ConflictBias: 0.3, StrictCount: true}, rng)
}

// exactOnly wraps gen to yield only networks whose every component the
// default options serve exactly, drawing again (from the same seeded
// rng) until one is. A multicomp network now and then holds a component
// big enough to be sampled; its refills cost 10-40 ms a step against
// ~20 us for the rest, so a handful of such components among a run's
// networks would set the run's whole step time.
func exactOnly(gen func(int, *rand.Rand) (*schemanet.Dataset, error)) func(int, *rand.Rand) (*schemanet.Dataset, error) {
	return func(size int, rng *rand.Rand) (*schemanet.Dataset, error) {
		const draws = 100
		for i := 0; i < draws; i++ {
			d, err := gen(size, rng)
			if err != nil {
				return nil, err
			}
			s, err := schemanet.NewSession(d.Network, &schemanet.Options{Workers: 1})
			if err != nil {
				return nil, err
			}
			if allExact(s) {
				return d, nil
			}
		}
		return nil, fmt.Errorf("no network served wholly exactly in %d draws", draws)
	}
}

func allExact(s *schemanet.Session) bool {
	for k := 0; k < s.Components(); k++ {
		if mode, err := s.InferenceOf(k); err != nil || mode != schemanet.InferenceExact {
			return false
		}
	}
	return true
}

// hubsNetwork merges 4 independently generated dense sub-networks with
// no interaction edges between them: a few dense hub components plus a
// tail of small ones.
func hubsNetwork(size int, rng *rand.Rand) (*schemanet.Dataset, error) {
	const groups = 4
	b := schemanet.NewBuilder()
	truth := schemanet.NewMatching()
	attrBase, schemaBase := 0, 0
	for g := 0; g < groups; g++ {
		d, err := denseNetwork(size/groups, rng)
		if err != nil {
			return nil, err
		}
		sub := d.Network
		for _, sch := range sub.Schemas() {
			names := make([]string, len(sch.Attrs))
			for i, a := range sch.Attrs {
				names[i] = sub.AttrName(a)
			}
			b.AddSchema(fmt.Sprintf("g%d_%s", g, sch.Name), names...)
		}
		for _, e := range sub.Interaction().Edges() {
			b.Connect(schemanet.SchemaID(schemaBase+e.U), schemanet.SchemaID(schemaBase+e.V))
		}
		for _, c := range sub.Candidates() {
			b.AddCorrespondence(schemanet.AttrID(attrBase)+c.A, schemanet.AttrID(attrBase)+c.B, c.Confidence)
		}
		for _, p := range d.GroundTruth.Pairs() {
			truth.Add(schemanet.AttrID(attrBase)+p[0], schemanet.AttrID(attrBase)+p[1])
		}
		attrBase += sub.NumAttributes()
		schemaBase += sub.NumSchemas()
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &schemanet.Dataset{Name: "hubs", Network: net, GroundTruth: truth}, nil
}

// measure runs the workload once and assembles its result line plus
// human-readable notes. It drives units 0, 1, 2, ... (at least one)
// until cfg.seconds of wall time have passed, so a run's length does not
// grow when the host is slow; the inputs of unit i depend only on the
// seed.
func (w *workload) measure(cfg runConfig) (result, []string, error) {
	rec := &recorder{}
	var tr *tracer
	if cfg.traced {
		tr = &tracer{base: &recorder{}}
	}
	if w.kind == durableDriver {
		if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
			return result{}, nil, err
		}
		// Only this run's stores live here; drop the directory if empty.
		defer os.Remove(cfg.tmp)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	n, candidates := 0, 0
	for ; n == 0 || time.Now().Before(deadline); n++ {
		i := n
		nw, err := w.network(cfg.seed, i)
		if err != nil {
			return result{}, nil, err
		}
		candidates += nw.d.Network.NumCandidates()
		opts := sessionOptions(cfg.seed, i)
		if tr != nil {
			tr.measureNetwork(nw)
		}
		switch w.kind {
		case soloDriver, crowdDriver:
			if tr == nil {
				rec.session(w.kind, nw, opts, false)
				continue
			}
			tr.base.session(w.kind, nw, opts, false)
			if t := rec.session(w.kind, nw, opts, true); t != nil {
				if err := tr.replay(t, w.kind == soloDriver); err != nil {
					rec.problem("core replay of unit %d: %v", i, err)
				}
			}
		case durableDriver:
			dir := filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
			if tr != nil {
				tr.base.durableRound(w, nw, opts, dir+"-twin", nil, true)
			}
			rec.durableRound(w, nw, opts, dir, tr, cfg.traced)
		}
	}

	res := result{Correct: len(rec.problems) == 0, Attempted: rec.attempted, Failed: rec.failed}
	notes := []string{
		fmt.Sprintf("workload=%s seed=%d units=%d mean_candidates=%d", w.name, cfg.seed, n, candidates/n),
		rec.summary(),
	}
	if tr != nil {
		res.Correct = res.Correct && len(tr.base.problems) == 0
		res.Attempted += tr.base.attempted
		res.Failed += tr.base.failed
		res.Metrics = tr.metrics(w.kind, rec)
		notes = append(notes, tr.notes(w.kind)...)
		rec.problems = append(rec.problems, tr.base.problems...)
	} else {
		res.Metrics = rec.metrics()
	}
	for _, p := range rec.problems {
		notes = append(notes, "problem: "+p)
	}
	return res, notes, nil
}
