#include "textflag.h"

// func prefetchIdx(base unsafe.Pointer, idx []int, bits uint)
TEXT ·prefetchIdx(SB), NOSPLIT, $0-40
	MOVQ base+0(FP), AX
	MOVQ idx_base+8(FP), SI
	MOVQ idx_len+16(FP), CX
	MOVQ bits+32(FP), DX
	TESTQ CX, CX
	JEQ done

loop:
	MOVQ (SI), BX
	IMULQ DX, BX
	SHRQ $3, BX
	PREFETCHT0 (AX)(BX*1)
	ADDQ $8, SI
	DECQ CX
	JNE loop

done:
	RET
