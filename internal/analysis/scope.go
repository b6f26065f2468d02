package analysis

import (
	"go/ast"
	"strings"
)

// modulePath is this repository's module path. The analyzers are
// repo-specific tooling (they encode THIS repo's architecture), so the
// path is a constant rather than something rediscovered per run.
const modulePath = "repro"

// simPackages is the determinism perimeter: the packages whose behavior
// must be a pure function of configuration and seed, because their output
// feeds Reports, seed derivation, or event streams. Everything the round
// engine, the stores, the RNG, the workload generators, and the
// application substrates compute must replay bit-identically; the
// presentation and evaluation layers (experiments, stats, table, theory,
// cmd, examples) may format and aggregate however they like.
var simPackages = map[string]bool{
	modulePath:                        true, // root: Experiment/Study/serving layer
	modulePath + "/internal/core":     true,
	modulePath + "/internal/faults":   true, // fault schedules feed placement decisions
	modulePath + "/internal/sim":      true,
	modulePath + "/internal/loadvec":  true,
	modulePath + "/internal/workload": true,
	modulePath + "/internal/xrand":    true,
	modulePath + "/internal/cluster":  true, // application substrates
	modulePath + "/internal/netsim":   true,
	modulePath + "/internal/storage":  true,
	modulePath + "/internal/eventsim": true, // event-driven engine under the substrates
	modulePath + "/internal/sketch":   true, // count-min state behind loadvec's sketch store
}

// inSimScope reports whether the package at path carries the determinism
// invariants.
func inSimScope(path string) bool { return simPackages[path] }

// substrates are the Section-1.3 application substrate packages, reachable
// only from the root package and internal/experiments.
var substrates = map[string]bool{
	modulePath + "/internal/cluster": true,
	modulePath + "/internal/netsim":  true,
	modulePath + "/internal/storage": true,
}

// presentationAllowlist is the set of internal packages commands and
// examples may import: evaluation and formatting helpers that sit beside
// the public API, not the engine itself.
var presentationAllowlist = map[string]bool{
	modulePath + "/internal/experiments": true,
	modulePath + "/internal/stats":       true,
	modulePath + "/internal/table":       true,
	modulePath + "/internal/theory":      true,
	modulePath + "/internal/analysis":    true, // cmd/kdlint is the suite's own driver
}

func isCmdOrExample(path string) bool {
	return strings.HasPrefix(path, modulePath+"/cmd/") ||
		strings.HasPrefix(path, modulePath+"/examples/")
}

// isTestFile reports whether the file is a _test.go file. The standalone
// loader never feeds test files, but the vettool driver does (go vet
// analyzes test variants), and the analyzers exempt them uniformly.
func isTestFile(p *Pass, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}
