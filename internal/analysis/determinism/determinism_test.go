package determinism

import (
	"testing"

	"schemanet/internal/analysis/analysistest"
)

func TestFixtures(t *testing.T) {
	analysistest.Run(t, "../testdata", Analyzer, "determinism")
}

// TestScope pins the driver-level scoping: the deterministic core is
// in, the serving layer and tools are out.
func TestScope(t *testing.T) {
	for _, p := range Scope {
		if !Analyzer.Match(p) {
			t.Errorf("Match(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"schemanet",               // serving layer: wall-clock logging is legal
		"schemanet/internal/wal",  // durability: fsseam's territory
		"schemanet/cmd/reconcile", // tools print timestamps deliberately
		"schemanet/internal/analysis",
	} {
		if Analyzer.Match(p) {
			t.Errorf("Match(%q) = true, want false", p)
		}
	}
}
