package core

// haveLeaderKernel reports whether leaderKernel can run here: the CPU has
// AVX-512 Foundation and Doubleword/Quadword (VPMULLQ), and the OS saves
// the opmask and all 512 bits of the 32 vector registers across context
// switches. Read once, at init.
var haveLeaderKernel = avx512Usable()

// avx512Usable reads CPUID leaves 1 and 7 and the XCR0 register.
func avx512Usable() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV is usable
		return false
	}
	// XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM0–15 upper halves,
	// ZMM16–31.
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ebx&(1<<17) != 0 // AVX512F, AVX512DQ
}

// leaderKernel writes to top the five smallest leader keys of samples,
// ascending, each keyed as leaderKeys keys it; len(samples) is a multiple
// of leaderChunk. It keys eight samples per AVX-512 instruction and keeps
// each lane's five smallest with a min/max network, then merges the eight
// lanes' lists. Implemented in leaders_amd64.s; it reads only samples.
//
//go:noescape
func leaderKernel(top *[streamMaxPlace + 1]uint64, samples []int, nonce, idx uint64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register of the state components the OS saves.
func xgetbv() (eax, edx uint32)
