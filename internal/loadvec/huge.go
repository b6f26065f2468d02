package loadvec

// hugePage is the transparent-huge-page size adviseHuge aligns to.
const hugePage = 2 << 20

// hugeMinBytes is the smallest bin array adviseHuge advises: two huge
// pages, so the aligned interior always holds at least one.
const hugeMinBytes = 2 * hugePage

// hugeRange returns the hugePage-aligned interior [lo, hi) of the size-byte
// array at address start, and ok = false when there is nothing to advise:
// the array is below hugeMinBytes, or its interior is empty.
func hugeRange(start, size uintptr) (lo, hi uintptr, ok bool) {
	if size < hugeMinBytes {
		return 0, 0, false
	}
	lo = (start + hugePage - 1) &^ (hugePage - 1)
	hi = (start + size) &^ (hugePage - 1)
	return lo, hi, lo < hi
}
