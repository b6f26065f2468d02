#include "textflag.h"

// func prefetchIdx(base unsafe.Pointer, idx []int, bits uint)
TEXT ·prefetchIdx(SB), NOSPLIT, $0-40
	MOVD base+0(FP), R0
	MOVD idx_base+8(FP), R1
	MOVD idx_len+16(FP), R2
	MOVD bits+32(FP), R3
	CBZ R2, done

loop:
	MOVD.P 8(R1), R4
	MUL R3, R4, R4
	ADD R4>>3, R0, R5
	PRFM (R5), PLDL1KEEP
	SUB $1, R2, R2
	CBNZ R2, loop

done:
	RET
