//go:build linux

package core

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestLeaderKernelDetected checks the CPUID/XGETBV probe against Linux's
// own view: the leader kernel is on exactly when /proc/cpuinfo's flags
// list avx512f and avx512dq (Linux drops them when it does not save the
// AVX-512 state). A host with the instructions then cannot run the Go
// network while every test passes.
func TestLeaderKernelDetected(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	want := slices.Contains(flags, "avx512f") && slices.Contains(flags, "avx512dq")
	if haveLeaderKernel != want || leaderKernelOn != want {
		t.Fatalf("leader kernel detected %v, on %v; /proc/cpuinfo has avx512f and avx512dq: %v",
			haveLeaderKernel, leaderKernelOn, want)
	}
	t.Logf("leader kernel on: %v", want)
}
