//go:build linux

package loadvec

import (
	"syscall"
	"unsafe"
)

// adviseHuge asks the kernel to back the 2 MB-aligned interior of s with
// transparent huge pages (madvise MADV_HUGEPAGE). The big bin arrays are
// read at uniformly random bins, so with 4 KB pages nearly every probe of
// an n = 10⁸ store also misses the TLB; one 2 MB page covers 512 times the
// bins. Hosts that run THP in "madvise" mode never give the Go heap huge
// pages without this call. Arrays below hugeMinBytes are left alone: they
// hold at most one aligned huge page and fit the TLB reach of small pages
// anyway. The array stays an ordinary Go heap object — the advice only
// changes which physical pages back it — and it is best-effort: a kernel
// that refuses it leaves ordinary pages, which is only slower. Call it on a
// freshly made array, before its pages are first touched.
func adviseHuge[E any](s []E) {
	var e E
	base := unsafe.Pointer(unsafe.SliceData(s))
	start := uintptr(base)
	lo, hi, ok := hugeRange(start, uintptr(len(s))*unsafe.Sizeof(e))
	if !ok {
		return
	}
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Add(base, lo-start)), hi-lo), syscall.MADV_HUGEPAGE)
}
