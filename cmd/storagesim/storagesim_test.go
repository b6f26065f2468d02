// Package storagesim holds only tests: the checks of the storagesim
// command, whose storage study is section A2 of the experiments report.
// Each runs `experiments -only A2`, the invocation that replaced the
// command.
package storagesim

import (
	"bytes"
	"strings"
	"testing"

	"repro/cmd/internal/report"
)

// run prints section A2 at -scale quick with args appended.
func run(args []string, out *bytes.Buffer) error {
	return report.Run(append([]string{"-scale", "quick", "-only", "A2"}, args...), out)
}

func TestRunSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"kd max", "two search", "msgs/file"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k,kd max") {
		t.Fatalf("csv output wrong:\n%s", buf.String())
	}
}

// TestRunErrors: the command's own flags are gone, and each fails by name
// rather than being ignored; so does a bad flag.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-servers", "0"}, {"-files", "1000"}, {"-runs", "2"}, {"-pool", "1"}, {"-zz"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		if !strings.Contains(err.Error(), args[0]) {
			t.Fatalf("%v: error %q does not name the flag", args, err)
		}
	}
}

// TestRunRejectsUnknownFormat: markdown, the report's own format, is
// accepted; a format the report lacks fails by name before any output.
func TestRunRejectsUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-format", "markdown"}, &buf); err != nil {
		t.Fatalf("-format markdown: %v", err)
	}
	buf.Reset()
	err := run([]string{"-format", "json"}, &buf)
	if err == nil {
		t.Fatal("unknown -format accepted")
	}
	if !strings.Contains(err.Error(), "json") {
		t.Fatalf("error does not name the bad format: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatal("output produced despite invalid format")
	}
}

// TestRunMultiRunDeterministic: the same seed prints the same section,
// run again or run after another section.
func TestRunMultiRunDeterministic(t *testing.T) {
	var a, b, both bytes.Buffer
	args := []string{"-seed", "9"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("a second run changed the output")
	}
	if err := run(append(args, "-only", "A1,A2"), &both); err != nil {
		t.Fatal(err)
	}
	alone := a.String()
	i := strings.Index(alone, "\n## A2 ")
	if i < 0 || !strings.HasSuffix(both.String(), alone[i:]) {
		t.Fatal("A2 printed after A1 differs from A2 printed alone")
	}
}
