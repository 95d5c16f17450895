#include "textflag.h"

// AVX2 micro-kernels behind Tensor.MulMat. Each ymm lane is one batch row:
// xt holds the block's inputs j-major (xt[j*L+lane], L = 8 or 4 lanes),
// weights are broadcast one at a time, and every lane keeps its own
// accumulator that starts at +0 and adds W[i][j]*x[lane][j] for j in
// ascending order with separate VMULPD and VADDPD — MulVec's rounding
// sequence exactly. No FMA: a fused multiply-add rounds once where MulVec
// rounds twice.
//
// The shapes come from the slice lengths: C = len(xt)/L, R = len(ot)/L.
// w must hold R*C weights (row-major, R rows of C); the Go wrapper slices
// every argument to size before the call, and nothing here checks bounds.
// ot receives the results row-major by weight row: ot[i*L+lane].

// func mulLanes8(w, xt, ot []float64)
TEXT ·mulLanes8(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ xt_base+24(FP), BX
	MOVQ xt_len+32(FP), CX
	SHRQ $3, CX              // CX = C
	MOVQ ot_base+48(FP), DI
	MOVQ ot_len+56(FP), DX
	SHRQ $3, DX              // DX = R
	MOVQ CX, R8
	SHLQ $3, R8              // R8 = weight row stride in bytes
	LEAQ (R8)(R8*2), R12     // R12 = three row strides

rows8x4:
	CMPQ DX, $4
	JLT  rows8x1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX              // AX = &W[i][j]
	LEAQ (SI)(R12*1), R9     // R9 = &W[i+3][j]
	MOVQ BX, R10             // R10 = &xt[j*8]
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   store8x4

loop8x4:
	VMOVUPD (R10), Y8        // lanes 0-3 of x[.][j]
	VMOVUPD 32(R10), Y9      // lanes 4-7
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (AX)(R8*1), Y13
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y11
	VADDPD Y14, Y2, Y2
	VADDPD Y11, Y3, Y3
	VBROADCASTSD (AX)(R8*2), Y10
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y14
	VADDPD Y12, Y4, Y4
	VADDPD Y14, Y5, Y5
	VBROADCASTSD (R9), Y13
	VMULPD Y8, Y13, Y11
	VMULPD Y9, Y13, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $8, AX
	ADDQ $8, R9
	ADDQ $64, R10
	DECQ R11
	JNZ  loop8x4

store8x4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, DX
	JMP  rows8x4

// The R%4 leftover weight rows, one at a time.
rows8x1:
	TESTQ DX, DX
	JZ   done8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, AX
	MOVQ BX, R10
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   store8x1

loop8x1:
	VBROADCASTSD (AX), Y10
	VMULPD (R10), Y10, Y11
	VMULPD 32(R10), Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	ADDQ $8, AX
	ADDQ $64, R10
	DECQ R11
	JNZ  loop8x1

store8x1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ R8, SI
	DECQ DX
	JMP  rows8x1

done8:
	VZEROUPPER
	RET

// func mulLanes4(w, xt, ot []float64)
TEXT ·mulLanes4(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ xt_base+24(FP), BX
	MOVQ xt_len+32(FP), CX
	SHRQ $2, CX              // CX = C
	MOVQ ot_base+48(FP), DI
	MOVQ ot_len+56(FP), DX
	SHRQ $2, DX              // DX = R
	MOVQ CX, R8
	SHLQ $3, R8              // R8 = weight row stride in bytes
	LEAQ (R8)(R8*2), R12     // R12 = three row strides

rows4x4:
	CMPQ DX, $4
	JLT  rows4x1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, AX              // AX = &W[i][j]
	LEAQ (SI)(R12*1), R9     // R9 = &W[i+3][j]
	MOVQ BX, R10             // R10 = &xt[j*4]
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   store4x4

loop4x4:
	VMOVUPD (R10), Y8
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R8*1), Y11
	VBROADCASTSD (AX)(R8*2), Y12
	VBROADCASTSD (R9), Y13
	VMULPD Y8, Y10, Y10
	VMULPD Y8, Y11, Y11
	VMULPD Y8, Y12, Y12
	VMULPD Y8, Y13, Y13
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VADDPD Y12, Y2, Y2
	VADDPD Y13, Y3, Y3
	ADDQ $8, AX
	ADDQ $8, R9
	ADDQ $32, R10
	DECQ R11
	JNZ  loop4x4

store4x4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R8*4), SI
	SUBQ $4, DX
	JMP  rows4x4

rows4x1:
	TESTQ DX, DX
	JZ   done4
	VXORPD Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ BX, R10
	MOVQ CX, R11
	TESTQ R11, R11
	JZ   store4x1

loop4x1:
	VBROADCASTSD (AX), Y10
	VMULPD (R10), Y10, Y11
	VADDPD Y11, Y0, Y0
	ADDQ $8, AX
	ADDQ $32, R10
	DECQ R11
	JNZ  loop4x1

store4x1:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ R8, SI
	DECQ DX
	JMP  rows4x1

done4:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
