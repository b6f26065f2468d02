package loadvec

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestHugeRange pins the advice arithmetic: nothing below the threshold or
// for an empty array, and otherwise exactly the hugePage-aligned interior,
// for aligned and unaligned starts alike.
func TestHugeRange(t *testing.T) {
	const a = 64 * hugePage // an aligned address
	for _, tc := range []struct {
		start, size uintptr
		lo, hi      uintptr
		ok          bool
	}{
		{a, 0, 0, 0, false},
		{a + 1, 0, 0, 0, false},
		{a, hugeMinBytes - 1, 0, 0, false},
		{a + 3, hugeMinBytes - 1, 0, 0, false},
		{a, hugeMinBytes, a, a + hugeMinBytes, true},
		{a + 1, hugeMinBytes, a + hugePage, a + 2*hugePage, true},
		{a + hugePage - 1, hugeMinBytes, a + hugePage, a + 2*hugePage, true},
		{a + 4096, 5*hugePage + 7, a + hugePage, a + 5*hugePage, true},
		{a + 5, 3 * hugePage, a + hugePage, a + 3*hugePage, true},
	} {
		lo, hi, ok := hugeRange(tc.start, tc.size)
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("hugeRange(%#x, %d) = [%#x, %#x) %v, want [%#x, %#x) %v",
				tc.start, tc.size, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
		if ok && (lo < tc.start || hi > tc.start+tc.size || lo%hugePage != 0 || hi%hugePage != 0) {
			t.Errorf("hugeRange(%#x, %d): interior [%#x, %#x) not aligned inside the array", tc.start, tc.size, lo, hi)
		}
	}
}

// TestAdviseHugeNeverPanics calls the advice on empty and under-threshold
// slices and on odd-length, odd-start views of a big array.
func TestAdviseHugeNeverPanics(t *testing.T) {
	adviseHuge([]uint16(nil))
	adviseHuge([]int{})
	adviseHuge(make([]int32, hugeMinBytes/4-1))
	big := make([]uint8, hugeMinBytes+3*hugePage+17)
	for _, cut := range [][2]int{{0, len(big)}, {1, len(big)}, {7, len(big) - 3}, {hugePage + 1, len(big) - 1}, {4095, 4095 + hugeMinBytes}} {
		adviseHuge(big[cut[0]:cut[1]])
	}
	adviseHuge(make([]uint16, hugeMinBytes/2+1)[1:])
}

// TestStoresOverHugeArrays: stores built over arrays past the advice
// threshold read all-zero and stay exact under Add/Sub.
func TestStoresOverHugeArrays(t *testing.T) {
	for _, tc := range []struct {
		kind StoreKind
		n    int
	}{
		{StoreDense, hugeMinBytes / 8},
		{StoreCompact, hugeMinBytes / 2},
		{StoreHist, hugeMinBytes / 4},
		{StoreNibble, 2 * hugeMinBytes},
	} {
		st, err := NewStore(tc.kind, tc.n+5) // an odd size past the threshold
		if err != nil {
			t.Fatal(err)
		}
		n := st.Len()
		for b := 0; b < n; b++ {
			if v := st.Load(b); v != 0 {
				t.Fatalf("%v: fresh bin %d reads %d", tc.kind, b, v)
			}
		}
		shadow := map[int]int{}
		for i := 0; i < 4096; i++ {
			b := int(uint64(i) * 2654435761 % uint64(n))
			if i%3 == 2 && shadow[b] > 0 {
				st.Sub(b, 1)
				shadow[b]--
			} else {
				st.AddN(b, 1+i%4)
				shadow[b] += 1 + i%4
			}
		}
		total := 0
		for b, v := range shadow {
			if got := st.Load(b); got != v {
				t.Fatalf("%v: bin %d reads %d, want %d", tc.kind, b, got, v)
			}
			total += v
		}
		if st.Balls() != total {
			t.Fatalf("%v: %d balls, want %d", tc.kind, st.Balls(), total)
		}
		for _, b := range []int{0, 1, n / 2, n - 1} {
			if got := st.Load(b); got != shadow[b] {
				t.Fatalf("%v: bin %d reads %d, want %d", tc.kind, b, got, shadow[b])
			}
		}
	}
}

// TestAdviseHugeSetsVmFlag checks the advice reaches the kernel: the
// aligned interior of a freshly built big store maps with the "hg"
// (MADV_HUGEPAGE) VmFlag. Linux with transparent huge pages available only.
func TestAdviseHugeSetsVmFlag(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("transparent huge pages are a Linux facility")
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge pages on this kernel: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skip("transparent huge pages are disabled ([never])")
	}
	st := NewCompact(hugeMinBytes)
	small, _ := st.RawLoads()
	start := uintptr(unsafe.Pointer(unsafe.SliceData(small)))
	lo, _, ok := hugeRange(start, uintptr(len(small))*2)
	if !ok {
		t.Fatal("no aligned interior to advise")
	}
	flags, found := vmFlagsAt(t, lo)
	if !found {
		t.Skip("no VmFlags line for the array in /proc/self/smaps")
	}
	if !hasField(flags, "hg") {
		t.Fatalf("mapping at %#x has VmFlags %q, want hg", lo, flags)
	}
	runtime.KeepAlive(st)
}

// vmFlagsAt returns the VmFlags fields of the /proc/self/smaps mapping
// holding addr.
func vmFlagsAt(t *testing.T, addr uintptr) (string, bool) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("cannot read /proc/self/smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if rng, _, isHeader := strings.Cut(line, " "); isHeader && strings.Contains(rng, "-") && !strings.HasSuffix(rng, ":") {
			from, to, _ := strings.Cut(rng, "-")
			a, errA := strconv.ParseUint(from, 16, 64)
			b, errB := strconv.ParseUint(to, 16, 64)
			in = errA == nil && errB == nil && uint64(addr) >= a && uint64(addr) < b
			continue
		}
		if in && strings.HasPrefix(line, "VmFlags:") {
			return strings.TrimPrefix(line, "VmFlags:"), true
		}
	}
	return "", false
}

func hasField(s, want string) bool {
	for _, f := range strings.Fields(s) {
		if f == want {
			return true
		}
	}
	return false
}
