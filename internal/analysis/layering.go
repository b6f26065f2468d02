package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// Layering is the facts-based replacement for ci.sh's two import-hygiene
// greps, deny-by-default so newly added internal packages are covered
// without editing any gate:
//
//  1. Commands and examples build only on the public API: a package under
//     cmd/ or examples/ may import no internal package at all, except the
//     presentation/evaluation helpers (experiments, stats, table, theory).
//     The public kdchoice package is the only sanctioned simulation entry
//     point.
//  2. The application substrates (cluster, netsim, storage) are reachable
//     only from the root package and internal/experiments — no other
//     internal package, command, or example may couple to them.
//  3. The count-min sketch (internal/sketch) is reachable only from
//     internal/loadvec: its counter layout and hash recipe stay behind the
//     sketch store, and every other package reads loads through
//     loadvec.Store.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforce the import DAG: cmd/examples on the public API only; substrates reachable only from root and internal/experiments; the sketch only from internal/loadvec",
	Run:  runLayering,
}

func runLayering(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			// Matches the grep gates this analyzer replaces: they read
			// go list's .Imports, which excludes test-only imports.
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			checkImport(pass, imp, path)
		}
	}
}

func checkImport(pass *Pass, imp *ast.ImportSpec, path string) {
	internal := strings.HasPrefix(path, modulePath+"/internal/")

	// Rule 1: cmd/ and examples/ stay on the public API.
	if isCmdOrExample(pass.Path) && internal && !presentationAllowlist[path] {
		pass.Reportf(imp.Pos(), "%s imports internal engine package %s; commands and examples build only on the public kdchoice API (allowed internal helpers: experiments, stats, table, theory)", pass.Path, path)
		return
	}

	// Rule 2: the substrates are implementation details of the root
	// package's Study surface and the experiments evaluation suite.
	if substrates[path] && pass.Path != modulePath && pass.Path != modulePath+"/internal/experiments" {
		pass.Reportf(imp.Pos(), "%s imports application substrate %s; substrates are reachable only from the root package and internal/experiments", pass.Path, path)
	}

	// Rule 3: the count-min layout is the sketch store's business.
	if path == modulePath+"/internal/sketch" && pass.Path != modulePath+"/internal/loadvec" {
		pass.Reportf(imp.Pos(), "%s imports %s; the count-min sketch is reachable only from internal/loadvec (read loads through loadvec.Store)", pass.Path, path)
	}
}
