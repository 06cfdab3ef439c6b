#include "textflag.h"

// func gemmStripFMA(acc *float64, a *float32, rs, ps int, b *float32, k, n int, alpha float32, pack *float64)
//
// For p < k, j < n&^3, r < 4, in p order:
//   acc[r*n+j] = fma(float64(alpha*a[r*rs+p*ps]), float64(b[p*n+j]), acc[r*n+j])
// Both factors are widened float32 values, so their product is exact in
// float64 and the fused form rounds where gemmStripGo's multiply-then-add
// does: once, at the add. A p whose four alpha·a products are all ±0 is
// skipped, as in gemmStripGo.
//
// pack is 5·k quadwords of scratch. The prologue writes one 40-byte entry
// per p that is not skipped — the four alpha·a widened to float64, then
// the byte offset of b's row p — so the column blocks neither recompute
// nor re-test them, and a strip whose every p is skipped is an empty pack.
// A block of 12 columns keeps its 4 × 3 accumulators in Y4–Y15 across the
// whole pack; a block of 4 finishes n mod 12.
TEXT ·gemmStripFMA(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rs+16(FP), R8
	MOVQ ps+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ k+40(FP), CX
	MOVQ n+48(FP), BX
	VMOVSS alpha+56(FP), X0
	MOVQ pack+64(FP), R10
	TESTQ CX, CX
	JZ   done
	SHLQ $2, R8               // a row stride, bytes
	SHLQ $2, R9               // a p stride, bytes
	LEAQ (SI)(R8*2), R11      // a's third row
	LEAQ (BX*4), R12          // b row stride, bytes
	XORQ R13, R13             // byte offset of b's row p
packloop:
	VMULSS (SI), X0, X1
	VMULSS (SI)(R8*1), X0, X2
	VMULSS (R11), X0, X3
	VMULSS (R11)(R8*1), X0, X4
	VORPS X1, X2, X5
	VORPS X3, X4, X6
	VORPS X5, X6, X5
	VCVTSS2SD X1, X1, X1
	VCVTSS2SD X2, X2, X2
	VCVTSS2SD X3, X3, X3
	VCVTSS2SD X4, X4, X4
	VMOVSD X1, (R10)
	VMOVSD X2, 8(R10)
	VMOVSD X3, 16(R10)
	VMOVSD X4, 24(R10)
	MOVQ R13, 32(R10)
	// The entry is kept (R10 moves past it) unless all four are ±0:
	// the shift drops the sign, so AX is zero only then.
	VMOVD X5, AX
	SHLL $1, AX
	LEAQ 40(R10), AX
	CMOVQNE AX, R10
	ADDQ R9, SI
	ADDQ R9, R11
	ADDQ R12, R13
	DECQ CX
	JNZ  packloop

	MOVQ pack+64(FP), R8      // pack start; R10 is its end
	CMPQ R8, R10
	JEQ  done
	LEAQ (BX*8), R9           // acc row stride, bytes
	LEAQ (R9)(R9*2), R11      // three acc rows
	CMPQ BX, $12
	JLT  cols4
block12:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD (DI)(R9*1), Y7
	VMOVUPD 32(DI)(R9*1), Y8
	VMOVUPD 64(DI)(R9*1), Y9
	VMOVUPD (DI)(R9*2), Y10
	VMOVUPD 32(DI)(R9*2), Y11
	VMOVUPD 64(DI)(R9*2), Y12
	VMOVUPD (DI)(R11*1), Y13
	VMOVUPD 32(DI)(R11*1), Y14
	VMOVUPD 64(DI)(R11*1), Y15
	MOVQ R8, SI
p12:
	MOVQ 32(SI), AX
	VCVTPS2PD (DX)(AX*1), Y0
	VCVTPS2PD 16(DX)(AX*1), Y1
	VCVTPS2PD 32(DX)(AX*1), Y2
	VBROADCASTSD (SI), Y3
	VFMADD231PD Y0, Y3, Y4
	VFMADD231PD Y1, Y3, Y5
	VFMADD231PD Y2, Y3, Y6
	VBROADCASTSD 8(SI), Y3
	VFMADD231PD Y0, Y3, Y7
	VFMADD231PD Y1, Y3, Y8
	VFMADD231PD Y2, Y3, Y9
	VBROADCASTSD 16(SI), Y3
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y1, Y3, Y11
	VFMADD231PD Y2, Y3, Y12
	VBROADCASTSD 24(SI), Y3
	VFMADD231PD Y0, Y3, Y13
	VFMADD231PD Y1, Y3, Y14
	VFMADD231PD Y2, Y3, Y15
	ADDQ $40, SI
	CMPQ SI, R10
	JNE  p12
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, (DI)(R9*1)
	VMOVUPD Y8, 32(DI)(R9*1)
	VMOVUPD Y9, 64(DI)(R9*1)
	VMOVUPD Y10, (DI)(R9*2)
	VMOVUPD Y11, 32(DI)(R9*2)
	VMOVUPD Y12, 64(DI)(R9*2)
	VMOVUPD Y13, (DI)(R11*1)
	VMOVUPD Y14, 32(DI)(R11*1)
	VMOVUPD Y15, 64(DI)(R11*1)
	ADDQ $96, DI
	ADDQ $48, DX
	SUBQ $12, BX
	CMPQ BX, $12
	JGE  block12
cols4:
	CMPQ BX, $4
	JLT  done
block4:
	VMOVUPD (DI), Y4
	VMOVUPD (DI)(R9*1), Y5
	VMOVUPD (DI)(R9*2), Y6
	VMOVUPD (DI)(R11*1), Y7
	MOVQ R8, SI
p4:
	MOVQ 32(SI), AX
	VCVTPS2PD (DX)(AX*1), Y0
	VBROADCASTSD (SI), Y1
	VBROADCASTSD 8(SI), Y2
	VBROADCASTSD 16(SI), Y3
	VBROADCASTSD 24(SI), Y8
	VFMADD231PD Y0, Y1, Y4
	VFMADD231PD Y0, Y2, Y5
	VFMADD231PD Y0, Y3, Y6
	VFMADD231PD Y0, Y8, Y7
	ADDQ $40, SI
	CMPQ SI, R10
	JNE  p4
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R9*1)
	VMOVUPD Y6, (DI)(R9*2)
	VMOVUPD Y7, (DI)(R11*1)
	ADDQ $32, DI
	ADDQ $16, DX
	SUBQ $4, BX
	CMPQ BX, $4
	JGE  block4
done:
	VZEROUPPER
	RET
