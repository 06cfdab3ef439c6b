#include "textflag.h"

// Eight lanes per instruction; n is a positive multiple of 8. Immediate 0
// selects round-to-nearest-even regardless of MXCSR.RC.

// func float16sEncode(dst *byte, src *float32, n int)
TEXT ·float16sEncode(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

encode:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       encode
	VZEROUPPER
	RET

// func float16sDecode(dst *float32, src *byte, n int)
TEXT ·float16sDecode(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

decode:
	VCVTPH2PS (SI), Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       decode
	VZEROUPPER
	RET

// func float16sRound(dst, src *float32, n int)
TEXT ·float16sRound(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

round:
	VMOVUPS   (SI), Y0
	VCVTPS2PH $0, Y0, X0
	VCVTPH2PS X0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       round
	VZEROUPPER
	RET
