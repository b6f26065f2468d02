//go:build !linux

package loadvec

// adviseHuge is a no-op off Linux: transparent huge pages and their
// madvise switch are a Linux facility (see huge_linux.go).
func adviseHuge[E any](s []E) {}
