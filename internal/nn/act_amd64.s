#include "textflag.h"

// AVX2+FMA activation kernels behind tanhRow and sigmoidRow. Each ymm lane
// is one element; every lane runs, operation for operation, what the
// scalar code runs on amd64, so the results are Float64bits-identical:
//
//   - tanh is a lane-wise port of Go's pure-Go math.tanh (Cephes): the
//     rational form a + a·s·P(s)/Q(s), s = a², for |x| < 0.625, and
//     1 - 2/(exp(2|x|)+1) otherwise, each with separate multiplies and
//     adds (the amd64 Go compiler never fuses a*b+c).
//   - exp is a lane-wise port of the avxfma branch of math/exp_amd64.s
//     (Shibata's method, from SLEEF): the same constants, the same FMA
//     steps, VCVTPD2DQ where the scalar code has CVTSD2SL, and the same
//     2^k scaling. The Go side runs these kernels only when a probe shows
//     that math.Exp took that branch.
//   - sigmoid is 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below.
//
// A block of four runs here only if every lane is finite and inside the
// range where the scalar code takes no special case: |x| <= ½·MAXLOG for
// tanh (above it math.Tanh returns ±1 without calling Exp) and |x| <= 708
// for sigmoid (below exp(-708.74) the scalar Exp takes its subnormal
// path). The first block that fails the check stops the kernel, which
// returns how many elements it wrote; the Go wrapper finishes that block
// on the scalar functions and calls back in for the rest.

// Each constant is broadcast to 32 bytes so it can be a ymm memory operand.
#define BCAST(off, bits) \
	DATA actc<>+(off)(SB)/8, $bits; \
	DATA actc<>+(off+8)(SB)/8, $bits; \
	DATA actc<>+(off+16)(SB)/8, $bits; \
	DATA actc<>+(off+24)(SB)/8, $bits

#define C_ABS 0      // sign-clearing mask
#define C_SIGN 32    // sign bit
#define C_ONE 64     // 1.0
#define C_TWO 96     // 2.0
#define C_TANHMAX 128 // ½·MAXLOG = 44.014845965556525, math.tanh's ±1 cut
#define C_RATMAX 160 // 0.625, math.tanh's rational/exp switch
#define C_SIGMAX 192 // 708, keeps exp(-|x|) off the subnormal path
#define C_P0 224     // math.tanh's tanhP and tanhQ
#define C_P1 256
#define C_P2 288
#define C_Q0 320
#define C_Q1 352
#define C_Q2 384
#define C_LOG2E 416  // the constants of math/exp_amd64.s
#define C_LN2U 448
#define C_LN2L 480
#define C_SIXTEENTH 512
#define C_E0 544     // exprodata<>+0: 0.5
#define C_E24 576    // exprodata<>+24 ... +64: the Taylor coefficients
#define C_E32 608
#define C_E40 640
#define C_E48 672
#define C_E56 704
#define C_E64 736
#define C_BIAS 768   // int64 1023, the float64 exponent bias

BCAST(C_ABS, 0x7fffffffffffffff)
BCAST(C_SIGN, 0x8000000000000000)
BCAST(C_ONE, 0x3ff0000000000000)
BCAST(C_TWO, 0x4000000000000000)
BCAST(C_TANHMAX, 0x404601e678fc457b)
BCAST(C_RATMAX, 0x3fe4000000000000)
BCAST(C_SIGMAX, 0x4086200000000000)
BCAST(C_P0, 0xbfeedc5baafd6f4b)
BCAST(C_P1, 0xc058d26a0e26682d)
BCAST(C_P2, 0xc0993ac030580563)
BCAST(C_Q0, 0x405c33f28a581b86)
BCAST(C_Q1, 0x40a176fa0e5535fa)
BCAST(C_Q2, 0x40b2ec102442040c)
BCAST(C_LOG2E, 0x3ff71547652b82fe)
BCAST(C_LN2U, 0x3fe62e42fefa3000)
BCAST(C_LN2L, 0x3d53de6af278ece6)
BCAST(C_SIXTEENTH, 0x3fb0000000000000)
BCAST(C_E0, 0x3fe0000000000000)
BCAST(C_E24, 0x3fc5555555555555)
BCAST(C_E32, 0x3fa5555555555555)
BCAST(C_E40, 0x3f81111111111111)
BCAST(C_E48, 0x3f56c16c16c16c17)
BCAST(C_E56, 0x3f2a01a01a01a01a)
BCAST(C_E64, 0x3efa01a01a01a01a)
BCAST(C_BIAS, 0x00000000000003ff)
GLOBL actc<>(SB), RODATA, $800

// EXP sets Y6 = exp(Y6) lane-wise, clobbering Y7, Y8 and Y9. It follows
// the avxfma branch of math/exp_amd64.s instruction for instruction; the
// callers have ruled out the branch's special cases (non-finite input,
// overflow, subnormal result). Y11 must hold 1.0 and Y10 2.0.
#define EXP \
	VMULPD actc<>+C_LOG2E(SB), Y6, Y7; \
	VCVTPD2DQY Y7, X8; \
	VCVTDQ2PD X8, Y7; \
	VFNMADD231PD actc<>+C_LN2U(SB), Y7, Y6; \
	VFNMADD231PD actc<>+C_LN2L(SB), Y7, Y6; \
	VMULPD actc<>+C_SIXTEENTH(SB), Y6, Y6; \
	VMOVUPD actc<>+C_E64(SB), Y9; \
	VFMADD213PD actc<>+C_E56(SB), Y6, Y9; \
	VFMADD213PD actc<>+C_E48(SB), Y6, Y9; \
	VFMADD213PD actc<>+C_E40(SB), Y6, Y9; \
	VFMADD213PD actc<>+C_E32(SB), Y6, Y9; \
	VFMADD213PD actc<>+C_E24(SB), Y6, Y9; \
	VFMADD213PD actc<>+C_E0(SB), Y6, Y9; \
	VFMADD213PD Y11, Y6, Y9; \
	VMULPD Y9, Y6, Y6; \
	VADDPD Y10, Y6, Y9; \
	VMULPD Y9, Y6, Y6; \
	VADDPD Y10, Y6, Y9; \
	VMULPD Y9, Y6, Y6; \
	VADDPD Y10, Y6, Y9; \
	VMULPD Y9, Y6, Y6; \
	VADDPD Y10, Y6, Y9; \
	VFMADD213PD Y11, Y9, Y6; \
	VPMOVSXDQ X8, Y8; \
	VPADDQ actc<>+C_BIAS(SB), Y8, Y8; \
	VPSLLQ $52, Y8, Y8; \
	VMULPD Y8, Y6, Y6

// func tanhLanes(v []float64) int
TEXT ·tanhLanes(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	SHRQ $2, CX              // CX = blocks of four
	XORQ AX, AX              // AX = elements written
	VMOVUPD actc<>+C_TWO(SB), Y10
	VMOVUPD actc<>+C_ONE(SB), Y11
	VMOVUPD actc<>+C_ABS(SB), Y12
	VMOVUPD actc<>+C_TANHMAX(SB), Y13
	VMOVUPD actc<>+C_RATMAX(SB), Y14
	VMOVUPD actc<>+C_SIGN(SB), Y15
	TESTQ CX, CX
	JZ   tanhdone

tanhloop:
	VMOVUPD (SI)(AX*8), Y0   // x
	VANDPD Y12, Y0, Y1       // a = |x|
	VCMPPD $6, Y13, Y1, Y2   // a > ½·MAXLOG, or NaN (NLE_US)
	VMOVMSKPD Y2, DX
	TESTL DX, DX
	JNZ  tanhdone

	// Rational branch: numerator (a·s)·P(s) in Y5, denominator Q(s) in Y4.
	VMULPD Y1, Y1, Y2        // s = a·a
	VMULPD actc<>+C_P0(SB), Y2, Y3
	VADDPD actc<>+C_P1(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD actc<>+C_P2(SB), Y3, Y3
	VADDPD actc<>+C_Q0(SB), Y2, Y4
	VMULPD Y2, Y4, Y4
	VADDPD actc<>+C_Q1(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD actc<>+C_Q2(SB), Y4, Y4
	VMULPD Y2, Y1, Y5
	VMULPD Y3, Y5, Y5

	// Exp branch: numerator 2, denominator exp(2a)+1 in Y6.
	VADDPD Y1, Y1, Y6        // 2a, exact
	EXP
	VADDPD Y11, Y6, Y6

	// One division serves both branches: each lane divides its own
	// branch's numerator by its own branch's denominator.
	VCMPPD $1, Y14, Y1, Y2   // rational lanes: a < 0.625 (LT_OS)
	VBLENDVPD Y2, Y5, Y10, Y5
	VBLENDVPD Y2, Y4, Y6, Y4
	VDIVPD Y4, Y5, Y5        // q
	VADDPD Y5, Y1, Y6        // rational: a + q
	VSUBPD Y5, Y11, Y7       // exp: 1 - q
	VBLENDVPD Y2, Y6, Y7, Y6

	// Both branches are odd in x with sign-symmetric rounding, and a = 0
	// gives +0, so OR-ing in x's sign bit is the scalar result (-0 stays).
	VANDPD Y15, Y0, Y0
	VORPD Y0, Y6, Y6
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ  tanhloop

tanhdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidLanes(v []float64) int
TEXT ·sigmoidLanes(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	VMOVUPD actc<>+C_TWO(SB), Y10
	VMOVUPD actc<>+C_ONE(SB), Y11
	VMOVUPD actc<>+C_ABS(SB), Y12
	VMOVUPD actc<>+C_SIGMAX(SB), Y13
	VXORPD Y14, Y14, Y14     // +0
	VMOVUPD actc<>+C_SIGN(SB), Y15
	TESTQ CX, CX
	JZ   sigdone

sigloop:
	VMOVUPD (SI)(AX*8), Y0   // x
	VANDPD Y12, Y0, Y1       // a = |x|
	VCMPPD $6, Y13, Y1, Y2   // a > 708, or NaN (NLE_US)
	VMOVMSKPD Y2, DX
	TESTL DX, DX
	JNZ  sigdone

	// The scalar code takes exp(-x) or exp(x), i.e. exp(-|x|); at x = ±0
	// both give exactly 1.
	VORPD Y15, Y1, Y6        // -a
	EXP                      // e = exp(-a)
	VADDPD Y11, Y6, Y4       // 1 + e
	VCMPPD $13, Y14, Y0, Y2  // x >= 0 (GE_OS): numerator 1, else e
	VBLENDVPD Y2, Y11, Y6, Y5
	VDIVPD Y4, Y5, Y5
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ $4, AX
	DECQ CX
	JNZ  sigloop

sigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
