package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestLayeringFixtures covers the three rules of the import DAG:
// commands stay on the public API (allowlisted helpers excepted), the
// substrates are reachable only from the root package and experiments,
// and the count-min sketch only from loadvec (whose fixture imports it
// without a finding).
func TestLayeringFixtures(t *testing.T) {
	t.Run("cmd-imports-engine", func(t *testing.T) {
		analysistest.Run(t, "testdata/src", "repro/cmd/badtool", analysis.Layering)
	})
	t.Run("engine-imports-substrate", func(t *testing.T) {
		analysistest.Run(t, "testdata/src", "repro/internal/loadvec", analysis.Layering)
	})
	t.Run("experiments-may-import-substrate", func(t *testing.T) {
		analysistest.Run(t, "testdata/src", "repro/internal/experiments", analysis.Layering)
	})
	t.Run("engine-imports-sketch", func(t *testing.T) {
		analysistest.Run(t, "testdata/src", "repro/internal/engine", analysis.Layering)
	})
}
