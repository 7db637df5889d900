package oracle

import (
	"math/rand"
	"sync"
	"testing"

	"schemanet/internal/schema"
)

func matching() *schema.Matching {
	m := schema.NewMatching()
	m.Add(0, 5)
	m.Add(1, 6)
	return m
}

func TestGroundTruth(t *testing.T) {
	o := NewGroundTruth(matching())
	if !o.Assert(schema.Correspondence{A: 0, B: 5}) {
		t.Fatal("correct pair rejected")
	}
	if !o.Assert(schema.Correspondence{A: 5, B: 0}) {
		t.Fatal("order must not matter")
	}
	if o.Assert(schema.Correspondence{A: 0, B: 6}) {
		t.Fatal("wrong pair accepted")
	}
}

func TestNoisyZeroErrorIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := NewNoisy(NewGroundTruth(matching()), 0, rng)
	for i := 0; i < 50; i++ {
		if !o.Assert(schema.Correspondence{A: 0, B: 5}) {
			t.Fatal("zero-noise oracle flipped an answer")
		}
	}
}

func TestNoisyFlipsAtRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := NewNoisy(NewGroundTruth(matching()), 0.3, rng)
	flips := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if !o.Assert(schema.Correspondence{A: 0, B: 5}) {
			flips++
		}
	}
	rate := float64(flips) / trials
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed flip rate %.3f, want ≈ 0.3", rate)
	}
}

func TestNoisyFullErrorInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := NewNoisy(NewGroundTruth(matching()), 1, rng)
	if o.Assert(schema.Correspondence{A: 0, B: 5}) {
		t.Fatal("error rate 1 must invert every answer")
	}
	if !o.Assert(schema.Correspondence{A: 0, B: 6}) {
		t.Fatal("error rate 1 must invert every answer")
	}
}

// TestNoisyConcurrentAssert shares one Noisy across goroutines — the
// usage pattern of fanned-out experiments and the concurrent serving
// layer. Before the internal mutex, the shared *rand.Rand made this a
// data race (silent generator-state corruption); the package race job
// runs this test under `go test -race`.
func TestNoisyConcurrentAssert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := NewNoisy(NewGroundTruth(matching()), 0.3, rng)
	const workers, trials = 8, 500
	flips := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trials; i++ {
				if !o.Assert(schema.Correspondence{A: 0, B: 5}) {
					flips[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, f := range flips {
		total += f
	}
	rate := float64(total) / (workers * trials)
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed flip rate %.3f under contention, want ≈ 0.3", rate)
	}
}

// TestNoisyForkIndependentStreams: forks answer from independent
// deterministic streams — same seed, same answers.
func TestNoisyForkIndependentStreams(t *testing.T) {
	base := NewNoisy(NewGroundTruth(matching()), 0.5, rand.New(rand.NewSource(5)))
	a, b := base.Fork(77), base.Fork(77)
	for i := 0; i < 200; i++ {
		if a.Assert(schema.Correspondence{A: 0, B: 5}) != b.Assert(schema.Correspondence{A: 0, B: 5}) {
			t.Fatal("same-seed forks diverged")
		}
	}
	// Forks do not advance the parent's stream.
	parent := NewNoisy(NewGroundTruth(matching()), 0.3, rand.New(rand.NewSource(2)))
	parent.Fork(1)
	flips := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if !parent.Assert(schema.Correspondence{A: 0, B: 5}) {
			flips++
		}
	}
	if rate := float64(flips) / trials; rate < 0.25 || rate > 0.35 {
		t.Fatalf("parent flip rate %.3f after Fork, want ≈ 0.3", rate)
	}
}
