//go:build amd64 || arm64

package core

import "unsafe"

// prefetchIdx asks the CPU to start loading, without waiting for it, the
// cache line that holds element idx[i] of the array at base, for every i.
// Elements are bits wide and the byte offset is idx[i]·bits/8, so one
// routine serves the dense (64), hist (32), compact (16) and nibble (4)
// load arrays. A prefetch never faults and never writes, so it cannot
// change a result, and it retires without waiting for its line — unlike a
// plain Go touch load, which cannot retire until its line arrives and so
// stalls the reorder buffer behind the miss. Implemented in prefetch_$GOARCH.s
// (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64); other ports get the
// no-op in prefetch_other.go.
//
//go:noescape
func prefetchIdx(base unsafe.Pointer, idx []int, bits uint)
