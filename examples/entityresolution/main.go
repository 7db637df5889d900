// Entity resolution as a matching network — the generality claim of the
// paper's conclusion (§VIII): "the proposed pay-as-you-go approach can
// be applied to other data integration tasks such as entity resolution."
//
// Three customer databases hold overlapping person records. We model
// each *source* as a schema and each *record* as an attribute; a
// candidate correspondence then asserts "these two records refer to the
// same person". The one-to-one constraint becomes "a record links to at
// most one record per other source" and the cycle constraint becomes
// transitive consistency of links around the three sources — exactly
// the natural expectations of entity resolution.
//
// Run with: go run ./examples/entityresolution
package main

import (
	"fmt"
	"log"

	"schemanet"
)

func main() {
	b := schemanet.NewBuilder()
	// Records are named by their visible description in each source.
	crm := b.AddSchema("CRM",
		"smith_john_1980", "smyth_jon_1980", "doe_jane_1975", "brown_ann_1991")
	billing := b.AddSchema("Billing",
		"j_smith_80", "jane_doe_75", "a_brown_91")
	support := b.AddSchema("Support",
		"john.smith", "jane.doe", "ann.brown", "jon.smyth")
	b.ConnectAll()
	_ = crm
	_ = billing
	_ = support

	// Record IDs by insertion order:
	// CRM: 0 smith_john, 1 smyth_jon, 2 doe_jane, 3 brown_ann
	// Billing: 4 j_smith, 5 jane_doe, 6 a_brown
	// Support: 7 john.smith, 8 jane.doe, 9 ann.brown, 10 jon.smyth
	//
	// A blocking/similarity stage proposed these record links; note the
	// classic ER confusion: both CRM records 0 (smith_john) and
	// 1 (smyth_jon) compete for Billing record 4 and the two Support
	// records 7 and 10.
	type link struct {
		a, b schemanet.AttrID
		conf float64
	}
	links := []link{
		{0, 4, 0.9}, {1, 4, 0.7}, // competing links to Billing j_smith
		{0, 7, 0.85}, {1, 7, 0.6}, {0, 10, 0.55}, {1, 10, 0.8},
		{2, 5, 0.95}, {2, 8, 0.9}, {5, 8, 0.9},
		{3, 6, 0.9}, {3, 9, 0.9}, {6, 9, 0.85},
		{4, 7, 0.8}, {4, 10, 0.5},
	}
	for _, l := range links {
		b.AddCorrespondence(l.a, l.b, l.conf)
	}
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: smith_john ≡ j_smith ≡ john.smith; smyth_jon is a
	// different person known only to CRM and Support.
	truth := schemanet.NewMatching()
	for _, p := range [][2]schemanet.AttrID{
		{0, 4}, {0, 7}, {4, 7}, // John Smith cluster
		{1, 10},                // Jon Smyth cluster
		{2, 5}, {2, 8}, {5, 8}, // Jane Doe cluster
		{3, 6}, {3, 9}, {6, 9}, // Ann Brown cluster
	} {
		truth.Add(p[0], p[1])
	}

	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("candidate record links: %d, consistency violations: %d\n",
		net.NumCandidates(), s.Violations())
	fmt.Printf("initial uncertainty: %.2f bits\n\n", s.Uncertainty())

	// A data steward answers the most informative link questions.
	questions := 0
	for s.Uncertainty() > 0 {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		correct := truth.ContainsCorrespondence(net.Candidate(c))
		fmt.Printf("steward: %-50s → %v\n", s.Describe(c), correct)
		if err := s.Assert(c, correct); err != nil {
			log.Fatal(err)
		}
		questions++
	}

	resolved := s.Instantiate()
	fmt.Printf("\nafter %d answers, resolved record links (%d):\n", questions, resolved.Size())
	for _, p := range resolved.Pairs() {
		fmt.Printf("  %s ≡ %s\n", net.FullName(p[0]), net.FullName(p[1]))
	}
	inter := resolved.IntersectionSize(truth)
	fmt.Printf("precision %.2f, recall %.2f vs ground truth\n",
		float64(inter)/float64(resolved.Size()),
		float64(inter)/float64(truth.Size()))
}
