package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/sampling"
)

// tracer collects the traced run's per-layer numbers. Every span is
// recorded from the benchmark's own code, around a call into one layer.
type tracer struct {
	// base holds untraced twins of the traced sessions (same network and
	// seed), the reference for trace.overhead_pct and trace.residual_pct.
	base *recorder

	// Session-boundary spans (schemanet layer), summed over steps.
	spanSteps                 int
	suggest, assert           time.Duration
	refillAssert, plainAssert time.Duration
	nRefill, nPlain           int
	collisions                int
	walInSteps                time.Duration // WAL I/O inside step spans

	// Core replay spans (core layer) and counter deltas.
	replaySteps          int
	rank, record, apply  time.Duration
	emissions, refills   int
	exactSteps           int
	emitUs, distinct     []float64 // sampling layer, Fig. 6 style, per network
	maximizeUs, repairUs []float64 // constraints layer, per network

	// Durable store (wal and store layers).
	fs                 fsStats
	reopens, evictions int
}

// measureNetwork times the sampling and constraints layers on one
// network in isolation. sampling.emit_us is the paper's Fig. 6 quantity
// computed as internal/experiments/fig6.go computes it: SampleInto over
// a fresh store.
func (tr *tracer) measureNetwork(nw *network) {
	const emissions, reps = 200, 200
	net := nw.d.Network
	engine := constraints.Default(net)
	rng := rand.New(rand.NewSource(1))
	s := sampling.NewSampler(engine, sampling.DefaultConfig(), rng)
	store := sampling.NewStore(net.NumCandidates(), math.MaxInt32)
	start := time.Now()
	s.SampleInto(store, nil, nil, emissions)
	tr.emitUs = append(tr.emitUs, us(time.Since(start))/emissions)
	tr.distinct = append(tr.distinct, float64(store.DistinctSize())/emissions)

	inst := engine.NewInstance()
	start = time.Now()
	for i := 0; i < reps; i++ {
		inst.Clear()
		engine.Maximize(inst, nil, rng)
	}
	tr.maximizeUs = append(tr.maximizeUs, us(time.Since(start))/reps)

	work := inst.Clone()
	n := net.NumCandidates()
	start = time.Now()
	for i := 0; i < 5*reps; i++ {
		work.CopyFrom(inst)
		engine.Repair(work, rng.Intn(n), nil)
	}
	tr.repairUs = append(tr.repairUs, us(time.Since(start))/(5*reps))
}

// replay re-runs a traced session's committed answers at core level,
// on a PMN wired the way NewSession wires one (same constraints, config
// and seed), with a span around each layer call. For a solo session the
// replay must also reproduce every suggestion (follow); for a crowd
// session the ranking is timed with a detached rng, because concurrent
// suggestions come from the serving layer's own stream. Either way the
// final probabilities must equal the session's bit for bit: a trace of
// a different program would prove nothing.
func (tr *tracer) replay(t *trail, follow bool) error {
	engine := constraints.Default(t.nw.d.Network.Clone())
	cfg := core.DefaultConfig()
	cfg.Sampler = sampling.DefaultConfig()
	cfg.Inference = core.InferAuto
	cfg.Workers = t.opts.Workers
	rng := rand.New(rand.NewSource(t.opts.Seed))
	pmn, err := core.New(engine, cfg, rng)
	if err != nil {
		return err
	}
	pmn.SetTopoSeed(t.opts.Seed)
	rankRng := rng
	if !follow {
		rankRng = rand.New(rand.NewSource(t.opts.Seed))
	}

	refilled := make(map[int]bool, len(t.steps))
	for i, s := range t.steps {
		start := time.Now()
		c, ok := core.InfoGainStrategy{}.Next(pmn, rankRng)
		t1 := time.Now()
		if follow && (!ok || c != s.cand) {
			return fmt.Errorf("step %d: core suggests %d (ok=%v), session suggested %d", i, c, ok, s.cand)
		}
		if err := pmn.RecordAssertion(s.cand, s.approved); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		t2 := time.Now()
		k := pmn.ComponentOf(s.cand)
		if pmn.ComponentInference(k) == core.InferExact {
			tr.exactSteps++
		}
		e0, r0 := pmn.Emissions(), pmn.Resamples()
		pmn.ApplyAssertions(k, []core.Assertion{{Cand: s.cand, Approved: s.approved}})
		t3 := time.Now()
		tr.rank += t1.Sub(start)
		tr.record += t2.Sub(t1)
		tr.apply += t3.Sub(t2)
		tr.emissions += pmn.Emissions() - e0
		tr.refills += pmn.Resamples() - r0
		refilled[s.cand] = pmn.Emissions() != e0
	}
	tr.replaySteps += len(t.steps)

	for c, want := range t.probs {
		if got := pmn.Probability(c); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("candidate %d: core probability %v, session %v", c, got, want)
		}
	}
	// Classify the session's assert spans by whether the same assertion
	// refilled in the (bit-identical) replay.
	for _, s := range t.steps {
		tr.addStep(s)
		if refilled[s.cand] {
			tr.refillAssert += s.assert
			tr.nRefill++
		} else {
			tr.plainAssert += s.assert
			tr.nPlain++
		}
	}
	return nil
}

func (tr *tracer) addStep(s step) {
	tr.spanSteps++
	tr.suggest += s.suggest
	tr.assert += s.assert
	tr.collisions += s.collisions
}

// metrics assembles the per-layer metrics. rec holds the traced
// sessions' end-to-end samples; tr.base the untraced twins'.
func (tr *tracer) metrics(kind driverKind, rec *recorder) map[string]metric {
	steps := float64(tr.spanSteps)
	replay := float64(tr.replaySteps)
	sessionMs := ms(tr.suggest+tr.assert) / steps
	self := sessionMs - ms(tr.rank+tr.record+tr.apply)/replay
	if kind == durableDriver {
		self = sessionMs - ms(tr.walInSteps)/steps
	}
	untracedP50 := quantile(tr.base.steps, 0.5)
	untracedMean := mean(tr.base.steps)
	vals := map[string]float64{
		"core.rank_ms":                   ms(tr.rank) / replay,
		"core.apply_ms":                  ms(tr.apply) / replay,
		"core.record_us":                 us(tr.record) / replay,
		"core.refills_per_step":          float64(tr.refills) / replay,
		"core.exact_share":               float64(tr.exactSteps) / replay,
		"sampling.emissions_per_step":    float64(tr.emissions) / replay,
		"sampling.emit_us":               mean(tr.emitUs),
		"sampling.distinct_per_emission": mean(tr.distinct),
		"constraints.maximize_us":        mean(tr.maximizeUs),
		"constraints.repair_us":          mean(tr.repairUs),
		"schemanet.suggest_ms":           ms(tr.suggest) / steps,
		"schemanet.assert_ms":            ms(tr.assert) / steps,
		"schemanet.assert_refill_ms":     ms(tr.refillAssert) / float64(tr.nRefill),
		"schemanet.assert_plain_ms":      ms(tr.plainAssert) / float64(tr.nPlain),
		"schemanet.self_ms":              self,
		"schemanet.collisions_per_step":  float64(tr.collisions) / steps,
		"wal.fsyncs_per_step":            float64(tr.fs.fsyncs) / steps,
		"wal.fsync_ms":                   ms(tr.fs.fsyncTime) / float64(tr.fs.fsyncs),
		"wal.write_kb_per_step":          float64(tr.fs.writeBytes) / 1024 / steps,
		"wal.write_us":                   us(tr.fs.writeTime) / float64(tr.fs.writes),
		"wal.renames":                    float64(tr.fs.renames) / steps,
		"wal.read_kb":                    float64(tr.fs.readBytes) / 1024 / steps,
		"store.reopens":                  float64(tr.reopens),
		"store.evictions":                float64(tr.evictions),
		"trace.overhead_pct":             100 * (quantile(rec.steps, 0.5) - untracedP50) / untracedP50,
		"trace.residual_pct":             100 * (untracedMean - sessionMs) / untracedMean,
	}
	return withUnits(perLayer, vals)
}

// notes states what the per-layer numbers cover on this workload.
func (tr *tracer) notes(kind driverKind) []string {
	var unreached []string
	switch kind {
	case durableDriver:
		unreached = []string{"core.*", "sampling.emissions_per_step", "schemanet.assert_refill_ms", "schemanet.assert_plain_ms"}
	default:
		unreached = []string{"wal.*", "store.*"}
	}
	return []string{
		fmt.Sprintf("trace: span_steps=%d replay_steps=%d untraced_steps=%d; residual = untraced mean step minus "+
			"suggest_ms+assert_ms (driver time between calls plus timer cost); self_ms = session spans minus %s",
			tr.spanSteps, tr.replaySteps, len(tr.base.steps), selfBasis(kind)),
		"trace: reported as 0, layer not reached from this workload's spans: " + strings.Join(unreached, ", "),
	}
}

func selfBasis(kind driverKind) string {
	if kind == durableDriver {
		return "WAL I/O inside them"
	}
	return "core rank+record+apply"
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
