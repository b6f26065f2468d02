//go:build !amd64 && !arm64

package core

import "unsafe"

// prefetchIdx is a no-op on ports without a prefetch routine (see
// prefetch.go): the loads it would have requested are simply read cold.
//
//kd:hotpath
func prefetchIdx(base unsafe.Pointer, idx []int, bits uint) {}
