// Command experiments runs the evaluation suite of the reproduction and
// prints one section per paper table, figure or claim, each showing the
// paper's statement next to the measured outcome. EXPERIMENTS.md is the
// report at -scale quick -seed 1, checked in and regenerated byte for byte
// by this command's tests. The report itself is package
// repro/cmd/internal/report.
//
// Usage:
//
//	experiments [-scale quick|full|paper] [-seed 1] [-only ID[,ID...]] [-format markdown|text|csv]
//	experiments -scale quick -seed 1 > EXPERIMENTS.md
//
// -scale paper uses the paper's n = 196608 for Table 1 and the series
// (minutes of CPU); -scale full (default) uses paper scale for Table 1 but
// moderates the auxiliary series; -scale quick shrinks everything for a
// fast smoke pass. -only prints the named sections (ids T1, E1, A2, …),
// in report order whatever order they are given in. -format text prints
// aligned tables and plain prose; -format csv prints only the tables, each
// under its section heading as a '#' line.
package main

import (
	"fmt"
	"os"

	"repro/cmd/internal/report"
)

func main() {
	if err := report.Run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
