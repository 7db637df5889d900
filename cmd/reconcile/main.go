// Command reconcile runs pay-as-you-go reconciliation over a dataset
// JSON file (as produced by cmd/datagen). The expert is either the
// dataset's ground truth (-oracle) or the interactive user answering
// y/n on stdin.
//
//	reconcile -in bp.json -oracle -budget 30
//	reconcile -in bp.json -interactive -effort 0.1
//
// With -store, the session lives in a durable crash-safe store: every
// assertion is applied and then appended to a per-session write-ahead
// log (the session directory's one file, wal.log) before it is
// acknowledged, and the run resumes from the WAL automatically —
// killing the process at any point loses at most the answer being
// typed:
//
//	reconcile -in bp.json -interactive -store ./sessions -session bp -annotator alice
//
// With -grow, a growth file is injected halfway through the budget:
// its schemas, candidates, and retirements are applied to the live
// session without rebuilding, exercising the incremental topology path
// (see DESIGN.md, "Dynamic networks"):
//
//	reconcile -in bp.json -oracle -budget 30 -grow extra.json
//
// The growth file is JSON:
//
//	{
//	  "schemas":    [{"name": "s4", "attrs": ["id", "title"]}],
//	  "candidates": [{"from": "s4.id", "to": "s1.isbn", "conf": 0.8}],
//	  "retire":     [{"from": "s1.isbn", "to": "s2.code"}]
//	}
//
// After the budget is exhausted the tool instantiates a trusted
// matching and prints it together with quality statistics (when ground
// truth is available).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"schemanet"
	"schemanet/internal/wal"
)

// session is the slice of the API the reconciliation loop needs,
// satisfied by both a plain in-memory session and a durable one.
type session interface {
	Suggest() (c int, ok bool)
	Assert(c int, correct bool) error
	Describe(c int) string
	Effort() (float64, error)
	Uncertainty() (float64, error)
	Violations() (int, error)
	Instantiate() (*schemanet.Matching, error)
	Network() *schemanet.Network
	AddSchema(name string, attrs ...string) error
	AddCandidates(cs []schemanet.Correspondence) error
	RetireCandidate(c int) error
}

// plain adapts *schemanet.Session to the session interface.
type plain struct{ s *schemanet.Session }

func (p plain) Suggest() (int, bool)          { return p.s.Suggest() }
func (p plain) Assert(c int, ok bool) error   { return p.s.Assert(c, ok) }
func (p plain) Describe(c int) string         { return p.s.Describe(c) }
func (p plain) Effort() (float64, error)      { return p.s.Effort(), nil }
func (p plain) Uncertainty() (float64, error) { return p.s.Uncertainty(), nil }
func (p plain) Violations() (int, error)      { return p.s.Violations(), nil }
func (p plain) Instantiate() (*schemanet.Matching, error) {
	return p.s.Instantiate(), nil
}
func (p plain) Network() *schemanet.Network { return p.s.Network() }
func (p plain) AddSchema(name string, attrs ...string) error {
	return p.s.AddSchema(name, attrs...)
}
func (p plain) AddCandidates(cs []schemanet.Correspondence) error {
	return p.s.AddCandidates(cs)
}
func (p plain) RetireCandidate(c int) error { return p.s.RetireCandidate(c) }

// durable adapts *schemanet.DurableSession, attributing every
// assertion to the -annotator id.
type durable struct {
	ds        *schemanet.DurableSession
	annotator string
}

func (d durable) Suggest() (int, bool)          { return d.ds.Suggest() }
func (d durable) Assert(c int, ok bool) error   { return d.ds.AssertAs(d.annotator, c, ok) }
func (d durable) Describe(c int) string         { return d.ds.Describe(c) }
func (d durable) Effort() (float64, error)      { return d.ds.Effort() }
func (d durable) Uncertainty() (float64, error) { return d.ds.Uncertainty() }
func (d durable) Violations() (int, error)      { return d.ds.Violations() }
func (d durable) Instantiate() (*schemanet.Matching, error) {
	return d.ds.Instantiate()
}
func (d durable) Network() *schemanet.Network { return d.ds.Network() }
func (d durable) AddSchema(name string, attrs ...string) error {
	return d.ds.AddSchema(name, attrs...)
}
func (d durable) AddCandidates(cs []schemanet.Correspondence) error {
	return d.ds.AddCandidates(cs)
}
func (d durable) RetireCandidate(c int) error { return d.ds.RetireCandidate(c) }

// growthFile is the -grow payload: schemas to register, candidates to
// append (by full attribute name), and candidates to retire.
type growthFile struct {
	Schemas []struct {
		Name  string   `json:"name"`
		Attrs []string `json:"attrs"`
	} `json:"schemas"`
	Candidates []struct {
		From string  `json:"from"`
		To   string  `json:"to"`
		Conf float64 `json:"conf"`
	} `json:"candidates"`
	Retire []struct {
		From string `json:"from"`
		To   string `json:"to"`
	} `json:"retire"`
}

// applyGrowth applies a growth file to the live session: schemas first
// (so candidate names referencing them resolve), then candidates, then
// retirements. Names resolve against the session's current network.
func applyGrowth(sess session, g growthFile) error {
	for _, sc := range g.Schemas {
		if err := sess.AddSchema(sc.Name, sc.Attrs...); err != nil {
			return err
		}
	}
	attrByName := func() map[string]schemanet.AttrID {
		net := sess.Network()
		idx := make(map[string]schemanet.AttrID, net.NumAttributes())
		for _, sch := range net.Schemas() {
			for _, a := range sch.Attrs {
				idx[net.FullName(a)] = a
			}
		}
		return idx
	}
	resolve := func(idx map[string]schemanet.AttrID, name string) (schemanet.AttrID, error) {
		a, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("grow: unknown attribute %q", name)
		}
		return a, nil
	}
	if len(g.Candidates) > 0 {
		idx := attrByName()
		cs := make([]schemanet.Correspondence, len(g.Candidates))
		for i, c := range g.Candidates {
			a, err := resolve(idx, c.From)
			if err != nil {
				return err
			}
			b, err := resolve(idx, c.To)
			if err != nil {
				return err
			}
			cs[i] = schemanet.Correspondence{A: a, B: b, Confidence: c.Conf}
		}
		if err := sess.AddCandidates(cs); err != nil {
			return err
		}
	}
	if len(g.Retire) > 0 {
		idx := attrByName()
		net := sess.Network()
		for _, r := range g.Retire {
			a, err := resolve(idx, r.From)
			if err != nil {
				return err
			}
			b, err := resolve(idx, r.To)
			if err != nil {
				return err
			}
			c := net.CandidateIndex(a, b)
			if c < 0 {
				return fmt.Errorf("grow: no candidate %s ↔ %s to retire", r.From, r.To)
			}
			if err := sess.RetireCandidate(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	var (
		in          = flag.String("in", "", "dataset JSON file (required)")
		useOracle   = flag.Bool("oracle", false, "answer assertions from the dataset ground truth")
		interactive = flag.Bool("interactive", false, "ask the user y/n per correspondence")
		budget      = flag.Int("budget", 0, "maximum number of assertions (0 = use -effort)")
		effort      = flag.Float64("effort", 0.1, "effort budget as a fraction of |C|")
		seed        = flag.Int64("seed", 1, "random seed")
		inference   = flag.String("inference", "", `per-component inference: "auto" (default), "sampled", or "exact"`)
		exactBudget = flag.Int("exact-budget", 0, "per-component instance budget for exact inference (0 = mode default)")
		minSamples  = flag.Int("min-samples", 0, "sampling refill chunk size (Options.MinSamples; 0 = 100)")
		maxSamples  = flag.Int("max-samples", 0, "sampling refill per-round emission cap (Options.Samples; 0 = 500)")
		convergence = flag.Float64("convergence", 0, "sampling refill marginal-delta stop threshold in [0,1] (Options.Convergence; 0 = 0.01)")
		resume      = flag.String("resume", "", "resume from a saved session file")
		save        = flag.String("save", "", "save the session to this file when done")
		storeDir    = flag.String("store", "", "durable session store directory (one write-ahead log per session)")
		sessName    = flag.String("session", "", `session name inside -store (default "default")`)
		annotator   = flag.String("annotator", "", "annotator id recorded with each assertion (-store mode)")
		syncPolicy  = flag.String("sync", "", `WAL sync policy for -store: "always", "batch" (default), or "none"`)
		growFile    = flag.String("grow", "", "JSON growth file injected halfway through the budget")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if !*useOracle && !*interactive {
		fatal(fmt.Errorf("choose -oracle or -interactive"))
	}
	if *storeDir != "" && (*resume != "" || *save != "") {
		fatal(fmt.Errorf("-store already persists the session durably; drop -resume/-save"))
	}
	if *storeDir == "" && (*sessName != "" || *annotator != "" || *syncPolicy != "") {
		fatal(fmt.Errorf("-session, -annotator, and -sync require -store"))
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	d, err := schemanet.DecodeDataset(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *useOracle && d.GroundTruth == nil {
		fatal(fmt.Errorf("dataset has no ground truth; cannot use -oracle"))
	}

	var growth *growthFile
	if *growFile != "" {
		gf, err := os.ReadFile(*growFile)
		if err != nil {
			fatal(err)
		}
		growth = new(growthFile)
		if err := json.Unmarshal(gf, growth); err != nil {
			fatal(fmt.Errorf("grow file %s: %w", *growFile, err))
		}
	}

	opts := &schemanet.Options{
		Seed: *seed, Inference: *inference, ExactBudget: *exactBudget,
		Samples: *maxSamples, MinSamples: *minSamples, Convergence: *convergence,
	}
	var (
		sess  session
		saver *schemanet.Session // plain mode only: backs -save
	)
	switch {
	case *storeDir != "":
		st, err := schemanet.OpenStore(*storeDir, d.Network, &schemanet.StoreOptions{
			Session: opts, Sync: *syncPolicy,
		})
		if err != nil {
			fatal(err)
		}
		// Syncs and closes every session's WAL; until then the WAL
		// already makes each acknowledged assertion crash-safe.
		defer st.Close()
		name := *sessName
		if name == "" {
			name = "default"
		}
		ds, err := st.Session(name)
		if err != nil {
			fatal(err)
		}
		hist, err := ds.History()
		if err != nil {
			fatal(err)
		}
		if len(hist) > 0 {
			// The history interleaves topology records with the
			// assertions; count the assertions alone.
			asserts := 0
			for _, r := range hist {
				if r.Kind == wal.KindAssert {
					asserts++
				}
			}
			fmt.Printf("resumed session %q: %d assertions on record\n", name, asserts)
		}
		sess = durable{ds: ds, annotator: *annotator}
	case *resume != "":
		sf, err := os.Open(*resume)
		if err != nil {
			fatal(err)
		}
		s, err := schemanet.LoadSession(d.Network, opts, sf)
		sf.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed session: %.0f%% effort already spent\n", 100*s.Effort())
		sess, saver = plain{s}, s
	default:
		s, err := schemanet.NewSession(d.Network, opts)
		if err != nil {
			fatal(err)
		}
		sess, saver = plain{s}, s
	}

	n := sess.Network().NumCandidates() // resumed stores may have grown
	k := *budget
	if k <= 0 {
		k = int(*effort * float64(n))
	}
	violations, err := sess.Violations()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network: %d schemas, %d candidates, %d constraint violations\n",
		sess.Network().NumSchemas(), n, violations)
	h, err := sess.Uncertainty()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("initial uncertainty: %.2f bits\n\n", h)

	stdin := bufio.NewScanner(os.Stdin)
	for i := 0; i < k; i++ {
		if growth != nil && i == k/2 {
			if err := applyGrowth(sess, *growth); err != nil {
				fatal(err)
			}
			growth = nil
			net := sess.Network()
			fmt.Printf("grew network: now %d schemas, %d candidates (%d retired)\n",
				net.NumSchemas(), net.NumCandidates(), net.NumRetired())
		}
		c, ok := sess.Suggest()
		if !ok {
			break
		}
		var correct bool
		if *useOracle {
			// The session network, not d.Network: -grow may have appended
			// candidates the base network has never heard of (the ground
			// truth simply doesn't contain those, so the oracle says no).
			correct = d.GroundTruth.ContainsCorrespondence(sess.Network().Candidate(c))
		} else {
			fmt.Printf("[%d/%d] correct? %s  (y/n) ", i+1, k, sess.Describe(c))
			if !stdin.Scan() {
				break
			}
			ans := strings.TrimSpace(strings.ToLower(stdin.Text()))
			correct = ans == "y" || ans == "yes"
		}
		if err := sess.Assert(c, correct); err != nil {
			fatal(err)
		}
	}

	if *save != "" {
		sf, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := saver.Save(sf); err != nil {
			fatal(err)
		}
		sf.Close()
		fmt.Printf("session saved to %s\n", *save)
	}

	if growth != nil { // budget too small to hit the midpoint
		if err := applyGrowth(sess, *growth); err != nil {
			fatal(err)
		}
	}

	spent, err := sess.Effort()
	if err != nil {
		fatal(err)
	}
	h, err = sess.Uncertainty()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nafter %.0f%% effort: uncertainty %.2f bits\n", 100*spent, h)
	trusted, err := sess.Instantiate()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instantiated matching: %d correspondences\n", trusted.Size())
	if d.GroundTruth != nil {
		inter := trusted.IntersectionSize(d.GroundTruth)
		prec := float64(inter) / float64(max(trusted.Size(), 1))
		rec := float64(inter) / float64(max(d.GroundTruth.Size(), 1))
		fmt.Printf("precision %.3f, recall %.3f vs ground truth\n", prec, rec)
	}
	net := sess.Network() // may have grown past d.Network via -grow
	for i, p := range trusted.Pairs() {
		if i >= 20 {
			fmt.Printf("… and %d more\n", trusted.Size()-20)
			break
		}
		fmt.Printf("  %s ↔ %s\n", net.FullName(p[0]), net.FullName(p[1]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reconcile:", err)
	os.Exit(1)
}
