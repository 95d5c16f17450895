package nn

import "sync"

// useAVX2 routes MulMat to the AVX2 kernel. It is decided once at package
// init from CPUID and XGETBV, so a plain GOAMD64=v1 build still runs the
// kernel on any host that has AVX2, and falls back to the pure-Go kernel
// on one that does not. Tests flip it to compare the two kernels.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// ymm state across context switches.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the xmm and the upper ymm halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// mulLanes8 and mulLanes4 are the assembly micro-kernels (mulmat_amd64.s):
// ot[i*L+l] = Σ_j w[i*C+j]·xt[j*L+l] for L = 8 or 4 lanes, with
// C = len(xt)/L and R = len(ot)/L. They check no bounds: w must hold
// exactly R*C weights.
//
//go:noescape
func mulLanes8(w, xt, ot []float64)

//go:noescape
func mulLanes4(w, xt, ot []float64)

// laneScratch is one pooled transpose buffer for mulMatAVX2: the j-major
// input block and the row-major-by-weight output block, back to back.
type laneScratch struct{ buf []float64 }

var laneBufs sync.Pool

// mulMatAVX2 is MulMat on the AVX2 kernel; the caller has checked the
// shapes. Batch rows go through in blocks of eight lanes; the rest in
// blocks of four, the last zero-padded (lanes never mix, so padding
// cannot change a real lane's bits).
func (t *Tensor) mulMatAVX2(x []float64, n int, out []float64) {
	C, R := t.C, t.R
	need := 8 * (C + R)
	s, _ := laneBufs.Get().(*laneScratch)
	if s == nil {
		s = &laneScratch{}
	}
	if cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	buf := s.buf[:need]
	w := t.W[:R*C]

	b := 0
	xt, ot := buf[:8*C], buf[8*C:]
	for ; b+8 <= n; b += 8 {
		pack8(xt, x[b*C:(b+8)*C], C)
		mulLanes8(w, xt, ot)
		unpackLanes(out[b*R:(b+8)*R], ot, 8, 8, R)
	}
	xt, ot = buf[:4*C], buf[4*C:4*(C+R)]
	for ; b < n; b += 4 {
		k := min(4, n-b)
		pack4(xt, x[b*C:(b+k)*C], k, C)
		mulLanes4(w, xt, ot)
		unpackLanes(out[b*R:(b+k)*R], ot, k, 4, R)
	}
	laneBufs.Put(s)
}

// pack8 transposes eight batch rows of width c into the j-major block
// xt[j*8+l] = x[l*c+j].
func pack8(xt, x []float64, c int) {
	x0, x1, x2, x3 := x[0*c:1*c], x[1*c:2*c], x[2*c:3*c], x[3*c:4*c]
	x4, x5, x6, x7 := x[4*c:5*c], x[5*c:6*c], x[6*c:7*c], x[7*c:8*c]
	for j := range x0 {
		d := xt[j*8 : j*8+8 : j*8+8]
		d[0], d[1], d[2], d[3] = x0[j], x1[j], x2[j], x3[j]
		d[4], d[5], d[6], d[7] = x4[j], x5[j], x6[j], x7[j]
	}
}

// pack4 transposes k ≤ 4 batch rows into the four-lane block
// xt[j*4+l] = x[l*c+j] and zeroes lanes k..3.
func pack4(xt, x []float64, k, c int) {
	for j := 0; j < c; j++ {
		d := xt[j*4 : j*4+4 : j*4+4]
		for l := range d {
			if l < k {
				d[l] = x[l*c+j]
			} else {
				d[l] = 0
			}
		}
	}
}

// unpackLanes scatters the first k lanes of a kernel output block back
// into row-major batch rows: out[l*r+i] = ot[i*lanes+l].
func unpackLanes(out, ot []float64, k, lanes, r int) {
	for l := 0; l < k; l++ {
		o := out[l*r : l*r+r]
		for i := range o {
			o[i] = ot[i*lanes+l]
		}
	}
}
