package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"schemanet/internal/core"
	"schemanet/internal/eval"
	"schemanet/internal/instantiate"
	"schemanet/internal/oracle"
	"schemanet/internal/schema"
)

// RobustRow is one oracle-error-rate setting.
type RobustRow struct {
	ErrRate   float64
	Precision map[string]float64 // "single" and "majority-3"
	Recall    map[string]float64
}

// RobustResult is a robustness extension beyond the paper: the expert
// of §II-B is assumed perfect; here the oracle errs with a given rate
// and we measure the instantiated matching after a 15% effort budget,
// both for a single noisy expert and for a majority vote of three
// independent ones. Expected shape: quality degrades gracefully with
// the error rate, and majority voting recovers most of the loss (three
// voters at rate e have an effective error of 3e²(1−e)+e³).
type RobustResult struct {
	Rows       []RobustRow
	Runs       int
	Candidates int
}

// Name implements Result.
func (*RobustResult) Name() string { return "robust" }

// Render implements Result.
func (r *RobustResult) Render(w io.Writer) error {
	renderHeader(w, "Robustness: noisy experts (extension)")
	fmt.Fprintf(w, "runs: %d, candidates: %d, budget: 15%%\n", r.Runs, r.Candidates)
	tw := newTable(w)
	fmt.Fprintln(tw, "Error rate\tPrec single\tPrec majority-3\tRec single\tRec majority-3")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			row.ErrRate,
			row.Precision["single"], row.Precision["majority-3"],
			row.Recall["single"], row.Recall["majority-3"])
	}
	return tw.Flush()
}

// majorityOracle wraps three independent noisy oracles.
type majorityOracle struct {
	voters [3]*oracle.Noisy
}

func (m *majorityOracle) Assert(c schema.Correspondence) bool {
	yes := 0
	for _, v := range m.voters {
		if v.Assert(c) {
			yes++
		}
	}
	return yes >= 2
}

// Robust measures instantiation quality under oracle noise.
func Robust(cfg Config) (Result, error) {
	d, err := bpDataset(cfg)
	if err != nil {
		return nil, err
	}
	runs := 10
	instCfg := instantiate.DefaultConfig()
	if cfg.Quick {
		runs = 3
		instCfg.Iterations = 60
	}
	if cfg.Runs > 0 {
		runs = cfg.Runs
	}
	n := d.Network.NumCandidates()
	budget := n * 15 / 100
	rates := []float64{0, 0.1, 0.2, 0.3}

	res := &RobustResult{Runs: runs, Candidates: n}
	for _, rate := range rates {
		row := RobustRow{
			ErrRate:   rate,
			Precision: map[string]float64{},
			Recall:    map[string]float64{},
		}
		for _, variant := range []string{"single", "majority-3"} {
			precs := make([]float64, runs)
			recs := make([]float64, runs)
			variant := variant
			rate := rate
			parallelRuns(runs, func(run int) {
				seed := cfg.Seed + int64(run*101+int(rate*100))
				rng := rand.New(rand.NewSource(seed))
				gt := oracle.NewGroundTruth(d.GroundTruth)
				var o core.Oracle
				if variant == "single" {
					o = oracle.NewNoisy(gt, rate, rand.New(rand.NewSource(seed+1)))
				} else {
					o = &majorityOracle{voters: [3]*oracle.Noisy{
						oracle.NewNoisy(gt, rate, rand.New(rand.NewSource(seed+1))),
						oracle.NewNoisy(gt, rate, rand.New(rand.NewSource(seed+2))),
						oracle.NewNoisy(gt, rate, rand.New(rand.NewSource(seed+3))),
					}}
				}
				e := engineFor(d.Network)
				pmn := core.MustNew(e, pmnConfig(cfg), rng)
				strat := core.InfoGainStrategy{}
				for i := 0; i < budget; i++ {
					c, ok := strat.Next(pmn, rng)
					if !ok {
						break
					}
					if err := pmn.Assert(c, o.Assert(d.Network.Candidate(c))); err != nil {
						panic(err)
					}
				}
				stores, masks := pmn.InstantiationUnits()
				inst := instantiate.HeuristicDecomposed(e, stores, masks,
					pmn.Probabilities(),
					pmn.Feedback().Approved(), pmn.Feedback().Disapproved(), instCfg, rng)
				precs[run], recs[run] = eval.PrecisionRecall(d.Network, inst.Members(), d.GroundTruth)
			})
			row.Precision[variant] = eval.MeanStd(precs).Mean
			row.Recall[variant] = eval.MeanStd(recs).Mean
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
