#include "textflag.h"

// The lane indices of the first chunk of eight samples.
DATA leaderIota<>+0(SB)/8, $0
DATA leaderIota<>+8(SB)/8, $1
DATA leaderIota<>+16(SB)/8, $2
DATA leaderIota<>+24(SB)/8, $3
DATA leaderIota<>+32(SB)/8, $4
DATA leaderIota<>+40(SB)/8, $5
DATA leaderIota<>+48(SB)/8, $6
DATA leaderIota<>+56(SB)/8, $7
GLOBL leaderIota<>(SB), RODATA|NOPTR, $64

// Lane j of T0 <= T1 <= ... <= T4 holds the five smallest keys of the
// samples 8c+j seen so far.
#define T0 Z13
#define T1 Z3
#define T2 Z2
#define T3 Z0
#define T4 Z4

// SORT5 sorts Z0..Z4 into T0..T4, lane-wise, with Knuth's 9-comparator
// network: (0,1) (3,4) (2,4) (2,3) (1,4) (0,3) (0,2) (1,3) (1,2). Each
// comparator writes its min to the free register and its max over the
// larger input, so the positions move between registers as commented.
#define SORT5 \
	VPMINUQ Z1, Z0, Z13; VPMAXUQ Z1, Z0, Z1; /* 0:Z13 1:Z1 */ \
	VPMINUQ Z4, Z3, Z0; VPMAXUQ Z4, Z3, Z4; /* 3:Z0 4:Z4 */ \
	VPMINUQ Z4, Z2, Z3; VPMAXUQ Z4, Z2, Z4; /* 2:Z3 4:Z4 */ \
	VPMINUQ Z0, Z3, Z2; VPMAXUQ Z0, Z3, Z0; /* 2:Z2 3:Z0 */ \
	VPMINUQ Z4, Z1, Z3; VPMAXUQ Z4, Z1, Z4; /* 1:Z3 4:Z4 */ \
	VPMINUQ Z0, Z13, Z1; VPMAXUQ Z0, Z13, Z0; /* 0:Z1 3:Z0 */ \
	VPMINUQ Z2, Z1, Z13; VPMAXUQ Z2, Z1, Z2; /* 0:Z13 2:Z2 */ \
	VPMINUQ Z0, Z3, Z1; VPMAXUQ Z0, Z3, Z0; /* 1:Z1 3:Z0 */ \
	VPMINUQ Z2, Z1, Z3; VPMAXUQ Z2, Z1, Z2 /* 1:Z3 2:Z2 */

// FOLD merges the lists of the lane pairs that SHUF, a lane permutation,
// brings together: the five smallest of two ascending 5-lists a and b are
// min(a[i], b[4-i]), into Z0..Z4 in an order that overwrites no T still
// to be read, then SORT5 orders them.
#define FOLD(SHUF) \
	SHUF(T0, Z8); \
	SHUF(T1, Z9); \
	SHUF(T2, Z10); \
	SHUF(T3, Z11); \
	SHUF(T4, Z12); \
	VPMINUQ Z10, T2, Z2; \
	VPMINUQ Z8, T4, Z4; \
	VPMINUQ Z11, T1, Z1; \
	VPMINUQ Z9, T3, Z3; \
	VPMINUQ Z12, T0, Z0; \
	SORT5

#define SWAP256(src, dst) VSHUFI64X2 $0x4e, src, src, dst
#define SWAP128(src, dst) VSHUFI64X2 $0xb1, src, src, dst
#define SWAP64(src, dst) VPSHUFD $0x4e, src, dst

// func leaderKernel(top *[streamMaxPlace + 1]uint64, samples []int, nonce, idx uint64)
//
// Each chunk of eight samples is keyed in parallel, exactly as leaderKeys
// keys one sample i of bin b:
//
//	z := b*0x9e3779b97f4a7c15 ^ nonce ^ 0xda942042e4dd58b5  // tieKey(nonce, b, 1)
//	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9                    // mix64
//	z = (z ^ z>>27) * 0x94d049bb133111eb
//	key := (z^z>>31)>>6&^idx | i                            // flatKey(0, z)&^idx | i
//
// and each lane inserts its key with keepLeast's network.
TEXT ·leaderKernel(SB), NOSPLIT, $0-48
	MOVQ top+0(FP), DI
	MOVQ samples_base+8(FP), SI
	MOVQ samples_len+16(FP), CX
	MOVQ nonce+32(FP), AX
	MOVQ idx+40(FP), DX

	MOVQ $0xda942042e4dd58b5, BX
	XORQ BX, AX
	VPBROADCASTQ AX, Z17
	MOVQ $0x9e3779b97f4a7c15, BX
	VPBROADCASTQ BX, Z16
	MOVQ $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z18
	MOVQ $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z19
	VPBROADCASTQ DX, Z20
	VMOVDQU64 leaderIota<>(SB), Z21
	MOVQ $8, BX
	VPBROADCASTQ BX, Z22

	VPTERNLOGQ $0xff, T0, T0, T0
	VMOVDQA64 T0, T1
	VMOVDQA64 T0, T2
	VMOVDQA64 T0, T3
	VMOVDQA64 T0, T4

	SHRQ $3, CX
	JEQ fold

loop:
	VMOVDQU64 (SI), Z7
	VPMULLQ Z16, Z7, Z7
	VPXORQ Z17, Z7, Z7
	VPSRLQ $30, Z7, Z5
	VPXORQ Z5, Z7, Z7
	VPMULLQ Z18, Z7, Z7
	VPSRLQ $27, Z7, Z5
	VPXORQ Z5, Z7, Z7
	VPMULLQ Z19, Z7, Z7
	VPSRLQ $31, Z7, Z5
	VPXORQ Z5, Z7, Z7
	VPSRLQ $6, Z7, Z7
	// Bitwise select: the index bits (Z20) from the lane index (Z21),
	// the rest from the key.
	VPTERNLOGQ $0xd8, Z20, Z21, Z7
	VPADDQ Z22, Z21, Z21

	// keepLeast, lane-wise: the key moves up T0..T4 and leaves the
	// smaller of each pair behind.
	VPMAXUQ Z7, T0, Z6
	VPMINUQ Z7, T0, T0
	VPMAXUQ Z6, T1, Z7
	VPMINUQ Z6, T1, T1
	VPMAXUQ Z7, T2, Z6
	VPMINUQ Z7, T2, T2
	VPMAXUQ Z6, T3, Z7
	VPMINUQ Z6, T3, T3
	VPMINUQ Z7, T4, T4

	ADDQ $64, SI
	DECQ CX
	JNE loop

fold:
	// Eight lists to four, to two, to one in lane 0.
	FOLD(SWAP256)
	FOLD(SWAP128)
	FOLD(SWAP64)

	VMOVQ X13, 0(DI) // T0
	VMOVQ X3, 8(DI)  // T1
	VMOVQ X2, 16(DI) // T2
	VMOVQ X0, 24(DI) // T3
	VMOVQ X4, 32(DI) // T4
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
