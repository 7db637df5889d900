package schemanet_test

import (
	"fmt"

	"schemanet"
)

// Example reconciles the paper's §II-A video-provider network end to
// end: five noisy candidate correspondences, two expert answers, and a
// trusted, constraint-consistent matching out.
func Example() {
	b := schemanet.NewBuilder()
	b.AddSchema("EoverI", "productionDate")
	b.AddSchema("BBC", "date")
	b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()
	// Attribute IDs in insertion order: 0 productionDate, 1 date,
	// 2 releaseDate, 3 screenDate.
	b.AddCorrespondence(0, 1, 0.85)
	b.AddCorrespondence(1, 2, 0.80)
	b.AddCorrespondence(0, 2, 0.75)
	b.AddCorrespondence(1, 3, 0.60)
	b.AddCorrespondence(0, 3, 0.55)
	net, err := b.Build()
	if err != nil {
		panic(err)
	}

	truth := schemanet.NewMatching()
	truth.Add(0, 1)
	truth.Add(1, 2)
	truth.Add(0, 2)

	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Printf("violations: %d\n", s.Violations())

	answers := 0
	for s.Uncertainty() > 0 {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			panic(err)
		}
		answers++
	}
	fmt.Printf("expert answers needed: %d\n", answers)

	trusted := s.Instantiate()
	for _, p := range trusted.Pairs() {
		fmt.Printf("%s = %s\n", net.FullName(p[0]), net.FullName(p[1]))
	}
	// Output:
	// violations: 4
	// expert answers needed: 2
	// EoverI.productionDate = BBC.date
	// EoverI.productionDate = DVDizzy.releaseDate
	// BBC.date = DVDizzy.releaseDate
}
