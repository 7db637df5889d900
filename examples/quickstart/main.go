// Quickstart: the motivating example of the paper (§II-A).
//
// Three video content providers publish overlapping product data. An
// automatic matcher proposed five correspondences between their
// date-like attributes; two of them are wrong, and together they
// violate the one-to-one and cycle constraints. We reconcile the
// network with a handful of expert answers and instantiate a trusted
// matching.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"schemanet"
)

func main() {
	// Build the network of Figure 1.
	b := schemanet.NewBuilder()
	b.AddSchema("EoverI", "productionDate", "title")
	b.AddSchema("BBC", "date", "name")
	b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()

	// Attribute IDs follow insertion order:
	// 0 productionDate, 1 title, 2 date, 3 name, 4 releaseDate, 5 screenDate.
	b.AddCorrespondence(0, 2, 0.85) // c1: productionDate ↔ date        (correct)
	b.AddCorrespondence(2, 4, 0.80) // c2: date ↔ releaseDate           (correct)
	b.AddCorrespondence(0, 4, 0.75) // c3: productionDate ↔ releaseDate (correct)
	b.AddCorrespondence(2, 5, 0.60) // c4: date ↔ screenDate            (wrong)
	b.AddCorrespondence(0, 5, 0.55) // c5: productionDate ↔ screenDate  (wrong)
	net, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// The true matching, used here to play the expert.
	truth := schemanet.NewMatching()
	truth.Add(0, 2)
	truth.Add(2, 4)
	truth.Add(0, 4)

	// Small network → exact probabilities are feasible.
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("candidates: %d, constraint violations: %d\n", net.NumCandidates(), s.Violations())
	fmt.Printf("initial uncertainty: %.2f bits\n\n", s.Uncertainty())

	// Pay-as-you-go loop: the session suggests the most informative
	// correspondence; the expert answers; uncertainty drops.
	for i := 0; ; i++ {
		c, ok := s.Suggest()
		if !ok || s.Uncertainty() == 0 {
			break
		}
		correct := truth.ContainsCorrespondence(net.Candidate(c))
		fmt.Printf("expert asserts %-45s → %v\n", s.Describe(c), correct)
		if err := s.Assert(c, correct); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  uncertainty now %.2f bits\n", s.Uncertainty())
	}

	trusted := s.Instantiate()
	fmt.Printf("\ntrusted matching (%d correspondences):\n", trusted.Size())
	for _, p := range trusted.Pairs() {
		fmt.Printf("  %s ↔ %s\n", net.FullName(p[0]), net.FullName(p[1]))
	}
}
