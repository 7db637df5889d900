package schemanet_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus micro-benchmarks of the hot paths. Each
// Benchmark<TableN|FigN> runs the corresponding experiment in quick
// mode (scaled datasets, fewer runs — same shape); use
// `go run ./cmd/repro -exp <name> -full` for paper-scale parameters.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"schemanet"
	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/datagen"
	"schemanet/internal/experiments"
	"schemanet/internal/instantiate"
	"schemanet/internal/matcher"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
	"schemanet/internal/wal"
)

// runExperiment is the common driver for the per-table/figure benches.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	runner := experiments.Lookup(name)
	if runner == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		res, err := runner(experiments.Config{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }
func BenchmarkRobust(b *testing.B)   { runExperiment(b, "robust") }

// --- Micro-benchmarks -------------------------------------------------

// benchDataset builds a synthetic dataset with the given candidate
// count for micro-benchmarks.
func benchDataset(b testing.TB, size int) (*schema.Dataset, *rand.Rand) {
	return benchDatasetSeeded(b, size, 42)
}

func benchDatasetSeeded(b testing.TB, size int, seed int64) (*schema.Dataset, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := size / 16
	if attrs < 12 {
		attrs = 12
	}
	d, err := datagen.SyntheticNetwork(datagen.Profile{
		Name: "bench", Domain: datagen.PurchaseOrder(),
		NumSchemas: 8, MinAttrs: attrs, MaxAttrs: attrs + 4,
		PoolFactor: 1.3, SynonymProb: 0.2, AbbrevProb: 0.15, EdgeProb: 0.5,
	}, datagen.SyntheticOpts{
		TargetCount: size, Precision: 0.67, ConflictBias: 0.7, StrictCount: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return d, rng
}

// benchMultiComponentDataset merges `groups` independently generated
// sub-networks (no interaction edges across groups) into one dataset,
// so the resulting network decomposes into at least `groups`
// constraint-connected components of ~size/groups candidates each.
func benchMultiComponentDataset(b testing.TB, size, groups int) *schema.Dataset {
	b.Helper()
	bld := schema.NewBuilder()
	truth := schema.NewMatching()
	attrBase := 0
	schemaBase := 0
	for g := 0; g < groups; g++ {
		d, _ := benchDatasetSeeded(b, size/groups, int64(42+g*13))
		sub := d.Network
		for _, sch := range sub.Schemas() {
			names := make([]string, len(sch.Attrs))
			for i, a := range sch.Attrs {
				names[i] = sub.AttrName(a)
			}
			bld.AddSchema(fmt.Sprintf("g%d_%s", g, sch.Name), names...)
		}
		for _, e := range sub.Interaction().Edges() {
			bld.Connect(schema.SchemaID(schemaBase+e.U), schema.SchemaID(schemaBase+e.V))
		}
		for _, c := range sub.Candidates() {
			bld.AddCorrespondence(schema.AttrID(attrBase)+c.A, schema.AttrID(attrBase)+c.B, c.Confidence)
		}
		for _, p := range d.GroundTruth.Pairs() {
			truth.Add(schema.AttrID(attrBase)+p[0], schema.AttrID(attrBase)+p[1])
		}
		attrBase += sub.NumAttributes()
		schemaBase += sub.NumSchemas()
	}
	net, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return &schema.Dataset{Network: net, GroundTruth: truth}
}

// benchNetwork builds a synthetic network with the given candidate
// count for micro-benchmarks.
func benchNetwork(b testing.TB, size int) (*constraints.Engine, *rand.Rand) {
	d, rng := benchDataset(b, size)
	return constraints.Default(d.Network), rng
}

// BenchmarkSamplePerEmission measures the cost of one emitted matching
// instance (the Figure 6 quantity) at three network sizes.
func BenchmarkSamplePerEmission(b *testing.B) {
	for _, size := range []int{128, 512, 2048} {
		b.Run(benchName(size), func(b *testing.B) {
			e, rng := benchNetwork(b, size)
			s := sampling.NewSampler(e, sampling.DefaultConfig(), rng)
			store := sampling.NewStore(e.Network().NumCandidates(), 1<<30)
			b.ResetTimer()
			s.SampleInto(store, nil, nil, b.N)
		})
	}
}

func benchName(size int) string { return fmt.Sprintf("C=%d", size) }

// benchEngines yields the compiled engine for every size.
func benchEngines(b *testing.B, run func(b *testing.B, e *constraints.Engine, rng *rand.Rand)) {
	b.Helper()
	for _, size := range []int{128, 512, 2048} {
		b.Run(benchName(size), func(b *testing.B) {
			e, rng := benchNetwork(b, size)
			run(b, e, rng)
		})
	}
}

// BenchmarkRepair measures Algorithm 4 on a maximal instance.
func BenchmarkRepair(b *testing.B) {
	benchEngines(b, func(b *testing.B, e *constraints.Engine, rng *rand.Rand) {
		inst := e.NewInstance()
		e.Maximize(inst, nil, rng)
		n := e.Network().NumCandidates()
		work := inst.Clone()
		// Every move once first, so the scratch sits at its high-water
		// mark and allocs/op reads the steady state even at 1x.
		for c := 0; c < n; c++ {
			work.CopyFrom(inst)
			e.Repair(work, c, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.CopyFrom(inst)
			e.Repair(work, rng.Intn(n), nil)
		}
	})
}

// BenchmarkMaximize measures the saturation pass.
func BenchmarkMaximize(b *testing.B) {
	benchEngines(b, func(b *testing.B, e *constraints.Engine, rng *rand.Rand) {
		inst := e.NewInstance()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.Clear()
			e.Maximize(inst, nil, rng)
		}
	})
}

// BenchmarkWalkStep measures one sampler walk step from a maximal
// instance: Repair a free move, then Resaturate what the repair removed.
func BenchmarkWalkStep(b *testing.B) {
	benchEngines(b, func(b *testing.B, e *constraints.Engine, rng *rand.Rand) {
		inst := e.NewInstance()
		e.Maximize(inst, nil, rng)
		var free []int
		for c := 0; c < e.Network().NumCandidates(); c++ {
			if !inst.Has(c) {
				free = append(free, c)
			}
		}
		work, removed := inst.Clone(), e.NewInstance()
		step := func(c int) {
			work.CopyFrom(inst)
			e.Repair(work, c, nil)
			removed.CopyFrom(inst)
			removed.DifferenceWith(work)
			e.Resaturate(work, nil, removed, nil, rng)
		}
		for _, c := range free {
			step(c) // warm the scratch, as in BenchmarkRepair
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(free[rng.Intn(len(free))])
		}
	})
}

// BenchmarkInformationGain measures one full exhaustive IG pass
// (InformationGains, the ranking oracle) at several network sizes. A
// live session ranks lazily and only where an assertion landed; the
// SessionAssert and SuggestHot benchmarks capture that cost.
func BenchmarkInformationGain(b *testing.B) {
	for _, size := range []int{128, 256, 512, 2048} {
		b.Run(benchName(size), func(b *testing.B) {
			e, rng := benchNetwork(b, size)
			pmn := core.MustNew(e, core.DefaultConfig(), rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = pmn.InformationGains()
			}
		})
	}
}

// BenchmarkInstantiate measures Algorithm 2.
func BenchmarkInstantiate(b *testing.B) {
	e, rng := benchNetwork(b, 256)
	s := sampling.NewSampler(e, sampling.DefaultConfig(), rng)
	store := s.Sample(nil, nil, 200)
	probs := store.Probabilities()
	cfg := instantiate.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = instantiate.Heuristic(e, store, probs, nil, nil, cfg, rng)
	}
}

// BenchmarkSessionInstantiate measures Session.Instantiate — the
// per-unit path (one Algorithm 2 search per piece store, store-less
// units taken as is) that perfbench's instantiate_ms times — on
// multicomp C=256 driven to the paper's goal under the default auto
// inference, where nearly every component is enumerated.
func BenchmarkSessionInstantiate(b *testing.B) {
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 256, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	net := d.Network
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	goal := 0.1 * s.Uncertainty()
	for s.Uncertainty() > goal {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = s.Instantiate()
	}
}

// BenchmarkMatcher measures the two candidate generators on a quick BP
// dataset.
func BenchmarkMatcher(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := datagen.MustGenerate(datagen.Scale(datagen.BP(), 0.4), rng)
	for _, m := range []matcher.Matcher{matcher.NewCOMALike(), matcher.NewAMCLike()} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Match(d.Network)
			}
		})
	}
}

// benchSessionAssert drives suggest+assert steps over the given dataset,
// reusing the session across iterations and recreating it (off the
// clock) only when its candidates are exhausted.
func benchSessionAssert(b *testing.B, d *schemanet.Dataset, net *schemanet.Network) {
	benchSessionAssertOpts(b, d, net, schemanet.Options{})
}

func benchSessionAssertOpts(b *testing.B, d *schemanet.Dataset, net *schemanet.Network, opts schemanet.Options) {
	b.Helper()
	newSession := func(seed int64) *schemanet.Session {
		o := opts
		o.Seed = seed
		s, err := schemanet.NewSession(net, &o)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.Suggest()
		if !ok {
			b.StopTimer()
			s = newSession(int64(i))
			b.StartTimer()
			c, ok = s.Suggest()
			if !ok {
				b.Fatal("fresh session has nothing to suggest")
			}
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAssert measures one pay-as-you-go suggest+assert step
// through the public API, including view maintenance and resampling, at
// several network sizes.
func BenchmarkSessionAssert(b *testing.B) {
	for _, size := range []int{128, 512, 2048} {
		b.Run(benchName(size), func(b *testing.B) {
			d, _ := benchDataset(b, size)
			benchSessionAssert(b, d, d.Network)
		})
	}
}

// BenchmarkSessionAssertMultiComp measures the suggest+assert step on a
// multi-component network (≥4 constraint-connected components) — the
// shape the component-decomposed PMN is built for: an assertion pays
// O(component), not O(network).
func BenchmarkSessionAssertMultiComp(b *testing.B) {
	for _, size := range []int{512, 2048} {
		d := benchMultiComponentDataset(b, size, 4)
		s, err := schemanet.NewSession(d.Network, nil)
		if err != nil {
			b.Fatal(err)
		}
		if s.Components() < 4 {
			b.Fatalf("merged network has %d components, want ≥ 4", s.Components())
		}
		b.Run(fmt.Sprintf("C=%d/comps=%d/decomposed", size, s.Components()), func(b *testing.B) {
			benchSessionAssert(b, d, d.Network)
		})
	}
}

// BenchmarkSessionAssertInference is the hybrid-inference crossover
// benchmark: the same suggest+assert step under the three
// Options.Inference modes, on the small-component-heavy "multicomp"
// profile (most components enumerate within the default budget — the
// regime auto is built for) and on the merged MultiComp networks. The
// exact mode runs only where a generous budget is known to cover every
// component; auto needs no such guarantee — that is the point.
func BenchmarkSessionAssertInference(b *testing.B) {
	type workload struct {
		name  string
		d     *schema.Dataset
		net   *schema.Network
		exact bool // forced-exact feasible on this workload
	}
	var loads []workload

	// Small-component-heavy profile via the public generator + synthetic
	// candidates (matcher-independent size control, like benchDataset).
	small := benchMultiCompDataset(b)
	loads = append(loads, workload{name: "multicomp/C=512", d: small, net: small.Network})

	merged := benchMultiComponentDataset(b, 512, 4)
	loads = append(loads, workload{name: "merged/C=512", d: merged, net: merged.Network})

	for _, w := range loads {
		for _, mode := range []string{"auto", "sampled", "exact"} {
			opts := schemanet.Options{Inference: mode}
			if mode == "exact" {
				// Feasibility probe: skip the forced-exact leg on workloads
				// with a component too big for a generous budget (auto covers
				// those by falling back; forced exact would error).
				opts.ExactBudget = 1 << 14
				if _, err := schemanet.NewSession(w.net, &opts); err != nil {
					b.Run(fmt.Sprintf("%s/%s", w.name, mode), func(b *testing.B) {
						b.Skipf("forced exact infeasible: %v", err)
					})
					continue
				}
			}
			b.Run(fmt.Sprintf("%s/%s", w.name, mode), func(b *testing.B) {
				benchSessionAssertOpts(b, w.d, w.net, opts)
			})
		}
	}
}

// BenchmarkConcurrentAssertMultiComp measures a component-disjoint
// assertion schedule (half the candidates, ground-truth answers)
// applied through the concurrent serving layer by P = GOMAXPROCS
// goroutines over a worker pool, against the same schedule applied
// serially through a plain Session — the head-to-head the
// per-component lock sharding is built for. On GOMAXPROCS=1 hosts the
// two run the same work on one core and the comparison measures the
// serving layer's overhead instead of its speedup.
func BenchmarkConcurrentAssertMultiComp(b *testing.B) {
	for _, size := range []int{512, 2048} {
		d := benchMultiComponentDataset(b, size, 4)
		probe, err := schemanet.NewSession(d.Network, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Component-disjoint schedule: every second candidate, grouped by
		// owning component, ground truth as the oracle.
		groups := make([][]schemanet.Assertion, probe.Components())
		for c := 0; c < d.Network.NumCandidates(); c += 2 {
			k, err := probe.ComponentOf(c)
			if err != nil {
				b.Fatal(err)
			}
			groups[k] = append(groups[k], schemanet.Assertion{
				Cand: c, Approved: d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c)),
			})
		}
		name := fmt.Sprintf("C=%d/comps=%d", size, probe.Components())
		// Plain Session, one goroutine — the pre-serving-layer cost of
		// the schedule (no snapshot publication, gains ranked lazily).
		b.Run(name+"/session-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := schemanet.NewSession(d.Network, &schemanet.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, as := range groups {
					for _, a := range as {
						if err := s.Assert(a.Cand, a.Approved); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
		// The serving layer driven by P goroutines vs one goroutine: the
		// 1-goroutine run isolates the serving overhead (locking, eager
		// re-rank, snapshot publication); the P-goroutine run adds the
		// component parallelism, which pays off at GOMAXPROCS > 1.
		workerCounts := []int{1}
		if p := runtime.GOMAXPROCS(0); p > 1 {
			workerCounts = append(workerCounts, p)
		}
		for _, workers := range workerCounts {
			workers := workers
			b.Run(fmt.Sprintf("%s/serving-%dg", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cs, err := schemanet.NewConcurrentSession(d.Network, &schemanet.Options{Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					var next atomic.Int64
					next.Store(-1)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								k := int(next.Add(1))
								if k >= len(groups) {
									return
								}
								for _, a := range groups[k] {
									if err := cs.Assert(a.Cand, a.Approved); err != nil {
										b.Error(err)
										return
									}
								}
							}
						}()
					}
					wg.Wait()
				}
			})
		}
	}
}

// --- Multi-core throughput rig ----------------------------------------
//
// The Throughput benchmarks report assertions/sec and suggestions/sec
// (b.ReportMetric) rather than ns/op and are meant to be run across
// GOMAXPROCS settings: `go test -bench Throughput -cpu 1,2,4,8` (or
// `make bench-throughput BENCHCPUS=1,2,4,8`). cmd/benchmedian groups
// the per-cpu variants and prints a scaling table. The worker count
// follows GOMAXPROCS, so the -cpu flag drives both the scheduler and
// the offered concurrency.

// benchThroughputGroups builds the component-disjoint ground-truth
// schedule (every `stride`-th candidate, grouped by owning component)
// shared by the throughput benchmarks, and the total assertion count.
func benchThroughputGroups(b testing.TB, d *schema.Dataset, stride int) ([][]schemanet.Assertion, int) {
	b.Helper()
	probe, err := schemanet.NewSession(d.Network, nil)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([][]schemanet.Assertion, probe.Components())
	total := 0
	for c := 0; c < d.Network.NumCandidates(); c += stride {
		k, err := probe.ComponentOf(c)
		if err != nil {
			b.Fatal(err)
		}
		groups[k] = append(groups[k], schemanet.Assertion{
			Cand: c, Approved: d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c)),
		})
		total++
	}
	return groups, total
}

// runAssertSchedule drives the schedule through cs with P = GOMAXPROCS
// goroutines pulling work units (whole component groups for the
// disjoint shape, single assertions for the contended one) from a
// shared counter.
func runAssertSchedule(b *testing.B, cs *schemanet.ConcurrentSession, units [][]schemanet.Assertion) {
	b.Helper()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1))
				if u >= len(units) {
					return
				}
				for _, a := range units[u] {
					if err := cs.Assert(a.Cand, a.Approved); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// benchThroughputAssert measures whole-schedule assertion throughput:
// each iteration replays the full schedule on a fresh concurrent
// session (built off the clock) and the headline metric is
// assertions/sec across all goroutines.
func benchThroughputAssert(b *testing.B, d *schema.Dataset, units [][]schemanet.Assertion, total int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs, err := schemanet.NewConcurrentSession(d.Network, &schemanet.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runAssertSchedule(b, cs, units)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*total)/secs, "asserts/s")
	}
}

// BenchmarkThroughputAssertDisjoint: component-disjoint schedule, one
// work unit per component — the shape the per-component lock sharding
// parallelizes. Scaling over -cpu 1,2,4,8 is the serving layer's
// headline number.
func BenchmarkThroughputAssertDisjoint(b *testing.B) {
	d := benchMultiComponentDataset(b, 512, 8)
	groups, total := benchThroughputGroups(b, d, 2)
	b.Run(fmt.Sprintf("C=512/comps=%d", len(groups)), func(b *testing.B) {
		benchThroughputAssert(b, d, groups, total)
	})
}

// BenchmarkThroughputAssertContended: the adversarial shape — every
// assertion targets the single largest component, so all goroutines
// serialize on one component lock and added cores buy only contention.
// The gap to Disjoint bounds what schedule-aware routing is worth.
func BenchmarkThroughputAssertContended(b *testing.B) {
	d := benchMultiComponentDataset(b, 512, 8)
	groups, _ := benchThroughputGroups(b, d, 2)
	largest := 0
	for k, g := range groups {
		if len(g) > len(groups[largest]) {
			largest = k
		}
	}
	// One assertion per work unit: goroutines interleave on the lock
	// instead of one goroutine owning the whole group.
	units := make([][]schemanet.Assertion, 0, len(groups[largest]))
	for _, a := range groups[largest] {
		units = append(units, []schemanet.Assertion{a})
	}
	b.Run(fmt.Sprintf("C=512/comp-size=%d", len(units)), func(b *testing.B) {
		benchThroughputAssert(b, d, units, len(units))
	})
}

// BenchmarkThroughputSuggest: suggestion throughput on a session with a
// fresh assert burst behind it — the first Suggest per component pays
// the deferred re-rank, the rest are lock-free snapshot merges.
// RunParallel follows -cpu, so the same invocation produces the read
// path's scaling curve.
func BenchmarkThroughputSuggest(b *testing.B) {
	d := benchMultiComponentDataset(b, 512, 8)
	cs, err := schemanet.NewConcurrentSession(d.Network, &schemanet.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	groups, _ := benchThroughputGroups(b, d, 4)
	runAssertSchedule(b, cs, groups)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := cs.Suggest(); !ok {
				b.Fatal("suggestion pool drained mid-benchmark")
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "suggests/s")
	}
}

// BenchmarkSessionAssertBudget: the default chunked refill loop against
// a pinned single-chunk budget (MinSamples = the 500 cap, one
// SampleWithin call per round) on the multicomp and dense workloads;
// accuracy against exact inference is the sampled ≈ exact harness's
// job (sampled_exact_test.go). Both variants report walk emissions per
// op — the sampling-effort unit the early stop economizes.
// suggest+assert is the end-to-end step; assert-only isolates the
// refill path the budget governs.
func BenchmarkSessionAssertBudget(b *testing.B) {
	multi := benchMultiCompDataset(b)
	dense, _ := benchDataset(b, 512)
	for _, ds := range []struct {
		name string
		d    *schemanet.Dataset
	}{{"multicomp", multi}, {"dense", dense}} {
		for _, mode := range []struct {
			name string
			opts schemanet.Options
		}{
			{"single-chunk", schemanet.Options{Inference: "sampled", MinSamples: 500}},
			{"default", schemanet.Options{Inference: "sampled"}},
		} {
			b.Run(ds.name+"/C=512/suggest+assert/"+mode.name, func(b *testing.B) {
				benchBudgetSuggestAssert(b, ds.d, mode.opts)
			})
			b.Run(ds.name+"/C=512/assert-only/"+mode.name, func(b *testing.B) {
				benchBudgetAssertOnly(b, ds.d, mode.opts)
			})
		}
	}
}

// benchBudgetSuggestAssert is benchSessionAssertOpts plus an
// emissions/op metric: walk emissions requested on the clock, per
// suggest+assert step (off-clock session rebuild fills excluded).
func benchBudgetSuggestAssert(b *testing.B, d *schemanet.Dataset, opts schemanet.Options) {
	net := d.Network
	newSession := func(seed int64) *schemanet.Session {
		o := opts
		o.Seed = seed
		s, err := schemanet.NewSession(net, &o)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession(0)
	emissions := -s.SamplingEmissions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.Suggest()
		if !ok {
			b.StopTimer()
			emissions += s.SamplingEmissions()
			s = newSession(int64(i))
			emissions -= s.SamplingEmissions()
			b.StartTimer()
			c, ok = s.Suggest()
			if !ok {
				b.Fatal("fresh session has nothing to suggest")
			}
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
	}
	emissions += s.SamplingEmissions()
	b.ReportMetric(float64(emissions)/float64(b.N), "emissions/op")
}

// benchBudgetAssertOnly times the assertion path alone on a
// deterministic stride-3 ground-truth schedule — no Suggest, so no gain
// re-rank: the refill the budget controls is the dominant cost.
func benchBudgetAssertOnly(b *testing.B, d *schemanet.Dataset, opts schemanet.Options) {
	net := d.Network
	n := net.NumCandidates()
	newSession := func(seed int64) *schemanet.Session {
		o := opts
		o.Seed = seed
		s, err := schemanet.NewSession(net, &o)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession(0)
	emissions := -s.SamplingEmissions()
	c := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c >= n {
			b.StopTimer()
			emissions += s.SamplingEmissions()
			s = newSession(int64(i))
			emissions -= s.SamplingEmissions()
			c = 0
			b.StartTimer()
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
		c += 3
	}
	emissions += s.SamplingEmissions()
	b.ReportMetric(float64(emissions)/float64(b.N), "emissions/op")
}

// benchSuggestHot times the Suggest half of the pay-as-you-go loop:
// every iteration is one ranked suggestion, and the assertion that
// stales the ranking happens off the clock — so the number isolates
// the lazy bound-pruned top-k re-rank (plus snapshot/strategy
// plumbing).
func benchSuggestHot(b *testing.B, d *schemanet.Dataset) {
	b.Helper()
	net := d.Network
	newSession := func(seed int64) *schemanet.Session {
		s, err := schemanet.NewSession(net, &schemanet.Options{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.Suggest()
		b.StopTimer()
		if !ok {
			s = newSession(int64(i))
			b.StartTimer()
			c, ok = s.Suggest()
			b.StopTimer()
			if !ok {
				b.Fatal("fresh session has nothing to suggest")
			}
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSuggestHot is the lazy top-k acceptance benchmark:
// suggest-per-assert with the assert off the clock, on the
// small-component-heavy multicomp profile and the hub-heavy merged
// profile. The pruned-vs-exhaustive ratio is measured at the core layer
// by BenchmarkTopGainPass.
func BenchmarkSuggestHot(b *testing.B) {
	multi := benchMultiCompDataset(b)
	merged := benchMultiComponentDataset(b, 512, 4)
	for _, w := range []struct {
		name string
		d    *schemanet.Dataset
	}{{"multicomp/C=512", multi}, {"merged/C=512", merged}} {
		b.Run(w.name+"/rank=pruned", func(b *testing.B) {
			benchSuggestHot(b, w.d)
		})
	}
}

// benchMultiCompDataset is the small-component-heavy "multicomp"
// profile at C=512 (~160 components of ~3 candidates, mostly exact
// under the default auto inference).
func benchMultiCompDataset(b testing.TB) *schemanet.Dataset {
	b.Helper()
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 512, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkNewSession measures session construction — forking the
// network's compiled Γ and partition (compiled once, by the first
// iteration; see DESIGN.md, "One compiled Γ per base network") and
// building every component's initial backend (enumeration for exact
// components, sampler stream and initial fill for sampled ones) — on
// one dense component and on many small ones.
func BenchmarkNewSession(b *testing.B) {
	dense, _ := benchDataset(b, 512)
	for _, w := range []struct {
		name string
		d    *schemanet.Dataset
	}{{"dense", dense}, {"multicomp", benchMultiCompDataset(b)}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schemanet.NewSession(w.d.Network, &schemanet.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadSession measures reopening a saved session: construction
// under the restored feedback of a history driven to the paper's goal
// (uncertainty at most a tenth of its initial value), on one sampled
// dense component and on the multicomp profile, where most components
// restore exactly.
func BenchmarkLoadSession(b *testing.B) {
	dense, _ := benchDataset(b, 512)
	for _, w := range []struct {
		name string
		d    *schemanet.Dataset
	}{{"dense", dense}, {"multicomp", benchMultiCompDataset(b)}} {
		net := w.d.Network
		opts := schemanet.Options{Seed: 1}
		s, err := schemanet.NewSession(net, &opts)
		if err != nil {
			b.Fatal(err)
		}
		goal := 0.1 * s.Uncertainty()
		for s.Uncertainty() > goal {
			c, ok := s.Suggest()
			if !ok {
				break
			}
			if err := s.Assert(c, w.d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				b.Fatal(err)
			}
		}
		var saved bytes.Buffer
		if err := s.Save(&saved); err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := schemanet.LoadSession(net, &opts, bytes.NewReader(saved.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreReopen measures one SessionStore reopen — evicting a
// resident tenant (a sync and close of its WAL) and reopening it (WAL
// recovery and construction under the recovered history) — on a
// multicomp C=256 tenant driven to the paper's goal under the default
// auto inference. The store runs on the in-memory filesystem: on a real
// one the eviction's fsync spreads the timing by more than the reopen
// costs.
func BenchmarkStoreReopen(b *testing.B) {
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 256, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	net := d.Network
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{
		Session: &schemanet.Options{Seed: 1}, FS: wal.NewMemFS(), Logf: b.Logf,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ds, err := st.Session("tenant")
	if err != nil {
		b.Fatal(err)
	}
	h0, err := ds.Uncertainty()
	if err != nil {
		b.Fatal(err)
	}
	for h := h0; h > 0.1*h0; {
		c, ok := ds.Suggest()
		if !ok {
			break
		}
		if err := ds.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			b.Fatal(err)
		}
		if h, err = ds.Uncertainty(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := st.Evict("tenant"); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Session("tenant"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAssertBP is the same step cost on a matcher-produced
// (rather than synthetic) candidate set.
func BenchmarkSessionAssertBP(b *testing.B) {
	d, err := schemanet.GenerateDataset("bp", 0.4, 7)
	if err != nil {
		b.Fatal(err)
	}
	net, err := schemanet.Match(d.Network, schemanet.COMALike())
	if err != nil {
		b.Fatal(err)
	}
	benchSessionAssert(b, d, net)
}
