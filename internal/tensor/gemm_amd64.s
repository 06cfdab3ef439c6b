#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmStripAVX2(acc *float64, a *float32, rs, ps int, b *float32, k, n int, alpha float32)
//
// For p < k, j < n&^3, r < 4:
//   acc[r*n+j] += float64(alpha*a[r*rs+p*ps]) * float64(b[p*n+j])
// as one VMULPD then one VADDPD per term — never an FMA, which would
// round once where the portable strip rounds twice. A p whose four
// alpha·a products are all ±0 is skipped, as in gemmStripGo.
TEXT ·gemmStripAVX2(SB), NOSPLIT, $0-60
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rs+16(FP), R8
	MOVQ ps+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ k+40(FP), CX
	MOVQ n+48(FP), BX
	VMOVSS alpha+56(FP), X0
	SHLQ $2, R8               // a row stride, bytes
	SHLQ $2, R9               // a p stride, bytes
	MOVQ BX, R10
	ANDQ $~3, R10             // columns covered
	JZ   done
	TESTQ CX, CX
	JZ   done
	// Point DI, R11..R13 (the four acc rows) and DX (the b row) just past
	// the covered columns and index them with AX = -columns .. 0.
	LEAQ (DI)(BX*8), R11
	LEAQ (R11)(BX*8), R12
	LEAQ (R12)(BX*8), R13
	LEAQ (DI)(R10*8), DI
	LEAQ (R11)(R10*8), R11
	LEAQ (R12)(R10*8), R12
	LEAQ (R13)(R10*8), R13
	LEAQ (DX)(R10*4), DX
	NEGQ R10
	SHLQ $2, BX               // b row stride, bytes
ploop:
	LEAQ (SI)(R8*2), AX
	VMULSS (SI), X0, X1
	VMULSS (SI)(R8*1), X0, X2
	VMULSS (AX), X0, X3
	VMULSS (AX)(R8*1), X0, X4
	VORPS X1, X2, X5
	VORPS X3, X4, X6
	VORPS X5, X6, X5
	VMOVD X5, AX
	SHLL $1, AX               // drop the sign: ±0 only if all four are
	JZ   pnext
	VCVTSS2SD X1, X1, X1
	VCVTSS2SD X2, X2, X2
	VCVTSS2SD X3, X3, X3
	VCVTSS2SD X4, X4, X4
	VBROADCASTSD X1, Y1
	VBROADCASTSD X2, Y2
	VBROADCASTSD X3, Y3
	VBROADCASTSD X4, Y4
	MOVQ R10, AX
jloop:
	VCVTPS2PD (DX)(AX*4), Y5
	VMULPD Y5, Y1, Y6
	VMULPD Y5, Y2, Y7
	VMULPD Y5, Y3, Y8
	VMULPD Y5, Y4, Y9
	VADDPD (DI)(AX*8), Y6, Y6
	VADDPD (R11)(AX*8), Y7, Y7
	VADDPD (R12)(AX*8), Y8, Y8
	VADDPD (R13)(AX*8), Y9, Y9
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, (R11)(AX*8)
	VMOVUPD Y8, (R12)(AX*8)
	VMOVUPD Y9, (R13)(AX*8)
	ADDQ $4, AX
	JNZ  jloop
pnext:
	ADDQ R9, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  ploop
done:
	VZEROUPPER
	RET
