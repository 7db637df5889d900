package experiments

import (
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1, Runs: 2} }

// runAndRender executes an experiment in quick mode and returns its
// rendered report.
func runAndRender(t *testing.T, name string) (Result, string) {
	t.Helper()
	return runAndRenderCfg(t, name, quickCfg())
}

// runAndRenderCfg is runAndRender under an explicit configuration.
func runAndRenderCfg(t *testing.T, name string, cfg Config) (Result, string) {
	t.Helper()
	runner := Lookup(name)
	if runner == nil {
		t.Fatalf("unknown experiment %q", name)
	}
	res, err := runner(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("%s render: %v", name, err)
	}
	if res.Name() != name {
		t.Fatalf("%s: Name() = %q", name, res.Name())
	}
	return res, sb.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "robust"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
	}
	if Lookup("FIG9") == nil {
		t.Error("Lookup should be case-insensitive")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown name should be nil")
	}
}

func TestTableIIShape(t *testing.T) {
	res, out := runAndRender(t, "table2")
	r := res.(*TableIIResult)
	if len(r.Rows) != 4 {
		t.Fatalf("Table II rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Schemas < 2 || row.MinAttrs < 1 || row.MaxAttrs < row.MinAttrs {
			t.Errorf("implausible row %+v", row)
		}
	}
	if !strings.Contains(out, "BP") || !strings.Contains(out, "WebForm") {
		t.Errorf("render missing datasets:\n%s", out)
	}
}

func TestTableIIIShape(t *testing.T) {
	res, out := runAndRender(t, "table3")
	r := res.(*TableIIIResult)
	if len(r.Rows) != 4 {
		t.Fatalf("Table III rows = %d, want 4", len(r.Rows))
	}
	// The paper's central observation: violations are plentiful for both
	// matchers on (at least) the larger datasets.
	totals := map[string]int{}
	for _, row := range r.Rows {
		for m, v := range row.Violations {
			totals[m] += v
			if row.Candidates[m] == 0 {
				t.Errorf("%s/%s produced no candidates", row.Dataset, m)
			}
		}
	}
	for m, v := range totals {
		if v == 0 {
			t.Errorf("matcher %s produced zero violations across all datasets", m)
		}
	}
	if !strings.Contains(out, "#Violations") {
		t.Errorf("render missing header:\n%s", out)
	}
}

func TestFig6Shape(t *testing.T) {
	// Fig6 reads cfg.Runs as its per-size sample count, and quickCfg's
	// Runs: 2 would time only two emissions per size, too few to order
	// C=128 against C=512 reliably. Run at quick mode's own 60 samples.
	cfg := quickCfg()
	cfg.Runs = 0
	res, _ := runAndRenderCfg(t, "fig6", cfg)
	r := res.(*Fig6Result)
	if len(r.Rows) < 3 {
		t.Fatalf("Fig6 rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.TimePerSample <= 0 {
			t.Errorf("row %d: non-positive time", i)
		}
		if i > 0 && row.Correspondences <= r.Rows[i-1].Correspondences {
			t.Errorf("sizes not increasing")
		}
	}
	// Expected shape: cost grows with network size.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.TimePerSample <= first.TimePerSample {
		t.Errorf("sampling cost did not grow with |C|: %v -> %v",
			first.TimePerSample, last.TimePerSample)
	}
}

func TestFig7Shape(t *testing.T) {
	res, _ := runAndRender(t, "fig7")
	r := res.(*Fig7Result)
	if len(r.Rows) < 3 {
		t.Fatalf("Fig7 rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Runs == 0 {
			t.Errorf("size %d: no successful runs", row.Correspondences)
		}
		// Expected shape: the sampled distribution is far better than
		// the uninformed baseline (ratio well below 100%).
		if row.KLRatioPercent < 0 || row.KLRatioPercent > 60 {
			t.Errorf("size %d: K-L ratio %.1f%% outside plausible band",
				row.Correspondences, row.KLRatioPercent)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res, _ := runAndRender(t, "fig8")
	r := res.(*Fig8Result)
	if len(r.Buckets) != 10 {
		t.Fatalf("buckets = %d, want 10", len(r.Buckets))
	}
	totalPct := 0.0
	var hiCorrect, hiIncorrect float64
	for _, bkt := range r.Buckets {
		totalPct += bkt.CorrectPercent + bkt.IncorrectPercent
		if bkt.Lo >= 0.8 {
			hiCorrect += bkt.CorrectPercent
			hiIncorrect += bkt.IncorrectPercent
		}
	}
	if totalPct < 99.9 || totalPct > 100.1 {
		t.Errorf("histogram mass = %.2f%%, want 100%%", totalPct)
	}
	// Expected shape: the high-probability region is dominated by
	// correct correspondences.
	if hiCorrect <= hiIncorrect {
		t.Errorf("high-probability buckets: correct %.1f%% <= incorrect %.1f%%",
			hiCorrect, hiIncorrect)
	}
}

func TestFig9Shape(t *testing.T) {
	res, _ := runAndRender(t, "fig9")
	r := res.(*Fig9Result)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.EffortPercent != 0 || last.EffortPercent != 100 {
		t.Fatalf("effort grid wrong: %v..%v", first.EffortPercent, last.EffortPercent)
	}
	// At 0% both strategies coincide; at 100% both are fully certain and
	// fully precise.
	if last.Uncertainty["random"] > 1e-9 || last.Uncertainty["info-gain"] > 1e-9 {
		t.Errorf("uncertainty not zero at 100%% effort: %+v", last.Uncertainty)
	}
	if last.Precision["random"] < 0.999 || last.Precision["info-gain"] < 0.999 {
		t.Errorf("precision not 1 at 100%% effort: %+v", last.Precision)
	}
	// Expected headline: the heuristic reaches low uncertainty with less
	// effort than random.
	if r.EffortToUncertainty["info-gain"] >= r.EffortToUncertainty["random"] {
		t.Errorf("info-gain effort %.0f%% >= random %.0f%%",
			r.EffortToUncertainty["info-gain"], r.EffortToUncertainty["random"])
	}
	// The heuristic's uncertainty curve dominates (is below) random
	// across the interior grid.
	better := 0
	for _, row := range r.Rows[1 : len(r.Rows)-1] {
		if row.Uncertainty["info-gain"] <= row.Uncertainty["random"]+1e-9 {
			better++
		}
	}
	if better < (len(r.Rows)-2)*2/3 {
		t.Errorf("heuristic below random on only %d/%d interior points", better, len(r.Rows)-2)
	}
}

func TestFig10Shape(t *testing.T) {
	res, _ := runAndRender(t, "fig10")
	r := res.(*Fig10Result)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// At 0% effort the strategies are statistically identical; allow
	// sampling noise.
	z := r.Rows[0]
	if diff := z.Precision["info-gain"] - z.Precision["random"]; diff < -0.1 || diff > 0.1 {
		t.Errorf("0%% effort precision gap = %v, want ~0", diff)
	}
	// Expected shape: heuristic wins on average across the grid.
	if r.AvgGain["precision"] < -0.01 {
		t.Errorf("precision gain %v, want >= 0", r.AvgGain["precision"])
	}
	if r.AvgGain["recall"] < -0.01 {
		t.Errorf("recall gain %v, want >= 0", r.AvgGain["recall"])
	}
}

func TestFig11Shape(t *testing.T) {
	res, _ := runAndRender(t, "fig11")
	r := res.(*Fig11Result)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Expected shape: the likelihood criterion does not hurt.
	if r.AvgGain["precision"] < -0.05 {
		t.Errorf("likelihood hurt precision by %v", r.AvgGain["precision"])
	}
	if r.AvgGain["recall"] < -0.05 {
		t.Errorf("likelihood hurt recall by %v", r.AvgGain["recall"])
	}
}

func TestRobustShape(t *testing.T) {
	res, _ := runAndRender(t, "robust")
	r := res.(*RobustResult)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 error rates", len(r.Rows))
	}
	if r.Rows[0].ErrRate != 0 {
		t.Fatal("first row must be the perfect-expert baseline")
	}
	base := r.Rows[0]
	worst := r.Rows[len(r.Rows)-1]
	// Quality must not *improve* under heavy noise, and majority voting
	// must not be worse than a single noisy expert at the highest rate.
	if worst.Precision["single"] > base.Precision["single"]+0.05 {
		t.Errorf("single-expert precision improved under noise: %v -> %v",
			base.Precision["single"], worst.Precision["single"])
	}
	if worst.Precision["majority-3"]+1e-9 < worst.Precision["single"]-0.05 {
		t.Errorf("majority voting much worse than single expert: %v vs %v",
			worst.Precision["majority-3"], worst.Precision["single"])
	}
}

func TestAblationShape(t *testing.T) {
	// Info-gain and least-certain AUCs sit within ~0.01 of each other,
	// so quickCfg's 2-run average picks a winner by seed; 20 runs
	// separate them.
	cfg := quickCfg()
	cfg.Runs = 20
	res, _ := runAndRenderCfg(t, "ablation", cfg)
	r := res.(*AblationResult)
	if len(r.UncertaintyAUC) != 4 {
		t.Fatalf("strategy AUCs = %d, want 4", len(r.UncertaintyAUC))
	}
	// Expected: info-gain has the best (lowest) uncertainty AUC.
	ig := r.UncertaintyAUC["info-gain"]
	for name, auc := range r.UncertaintyAUC {
		if name != "info-gain" && auc < ig-1e-9 {
			t.Errorf("strategy %s AUC %.3f beats info-gain %.3f", name, auc, ig)
		}
	}
	if r.MaintainedSize <= 0 || r.ScratchSize <= 0 {
		t.Errorf("store sizes not positive: %v / %v", r.MaintainedSize, r.ScratchSize)
	}
}
