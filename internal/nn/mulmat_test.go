package nn

// Cross-kernel tests for MulMat: the AVX2 assembly kernel against the
// pure-Go kernel, compared by math.Float64bits (NaN payloads, the sign
// of zero and subnormals included), plus the in-package benchmark of the
// autoencoder chain on both kernels.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// requireAVX2 skips on hosts where MulMat can only run the pure-Go
// kernel, and logs which kernel is active otherwise.
func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("MulMat kernel: pure Go (no AVX2 on this host); nothing to compare against")
	}
	t.Log("MulMat kernel: AVX2 assembly, checked against the pure-Go kernel")
}

// withKernel runs f with MulMat forced onto the AVX2 (true) or the
// pure-Go (false) kernel, restoring the host's choice afterwards.
func withKernel(avx2 bool, f func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	f()
}

// specials are the inputs where a reordered or fused sum would show:
// signed zeros, subnormals, products that underflow into the subnormal
// range, magnitudes whose products overflow, and infinities.
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.5e-310, -1e-315,
	1e-160, -3e-155,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
}

// kernelInput fills v with normal draws, replacing each with a special
// value at the given rate.
func kernelInput(v []float64, rate float64, rng *rand.Rand) {
	for i := range v {
		if rng.Float64() < rate {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
}

// kernelShapes is every (R, C) the kernels are checked on: each weight
// matrix of the production models, every R and C in 1..9, and the
// one-column and one-row extremes at the CLAP input width.
func kernelShapes() [][2]int {
	shapes := [][2]int{
		// CLAP autoencoder 345→160→80→40→80→160→345.
		{160, 345}, {80, 160}, {40, 80}, {80, 40}, {160, 80}, {345, 160},
		// Baseline #1 autoencoder 51→5→51.
		{5, 51}, {51, 5},
		// GRU W* (hidden 32 over the 32 RNN inputs) and U* at hidden 32.
		{32, 32},
		{345, 1}, {1, 345},
	}
	for r := 1; r <= 9; r++ {
		for c := 1; c <= 9; c++ {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	return shapes
}

func TestKernelMulMatBitIdentity(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(12))
	for _, shape := range kernelShapes() {
		r, c := shape[0], shape[1]
		for _, rate := range []float64{0, 0.05, 0.5} {
			w := NewTensor(r, c)
			kernelInput(w.W, rate, rng)
			for n := 0; n <= 33; n++ {
				x := make([]float64, n*c)
				kernelInput(x, rate, rng)
				want := make([]float64, n*r)
				got := make([]float64, n*r)
				withKernel(false, func() { w.MulMat(x, n, want) })
				withKernel(true, func() { w.MulMat(x, n, got) })
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("shape (%d,%d) n=%d specials=%v: out[%d] AVX2 %v (%#x), pure Go %v (%#x)",
							r, c, n, rate, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
			}
		}
	}
}

// TestKernelMulMatDirtyOutput checks the kernel overwrites every output
// element and never writes past the batch: out starts as NaN garbage and
// the guard cells around it must survive.
func TestKernelMulMatDirtyOutput(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(13))
	w := NewXavier(7, 5, rng)
	const guard = 4
	for n := 1; n <= 17; n++ {
		x := make([]float64, n*5)
		kernelInput(x, 0, rng)
		want := make([]float64, n*7)
		withKernel(false, func() { w.MulMat(x, n, want) })
		buf := make([]float64, n*7+2*guard)
		for i := range buf {
			buf[i] = math.NaN()
		}
		withKernel(true, func() { w.MulMat(x, n, buf[guard:guard+n*7]) })
		for i := range buf {
			in := i >= guard && i < guard+n*7
			switch {
			case in && math.Float64bits(buf[i]) != math.Float64bits(want[i-guard]):
				t.Fatalf("n=%d: out[%d] = %v, want %v", n, i-guard, buf[i], want[i-guard])
			case !in && !math.IsNaN(buf[i]):
				t.Fatalf("n=%d: guard cell %d overwritten with %v", n, i, buf[i])
			}
		}
	}
}

func TestKernelErrorsBatchMatchesError(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(14))
	for _, sizes := range [][]int{{345, 160, 80, 40, 80, 160, 345}, {51, 5, 51}} {
		ae := NewAutoencoder(sizes, rng)
		xs := randVecs(49, sizes[0], rng)
		want := make([]float64, len(xs))
		for i, x := range xs {
			want[i] = ae.Error(x)
		}
		for n := 1; n <= len(xs); n++ {
			got := ae.ErrorsBatch(xs[:n])
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("sizes %v n=%d: window %d ErrorsBatch %v, Error %v", sizes, n, k, got[k], want[k])
				}
			}
		}
	}
}

// BenchmarkMulMatAE times the CLAP autoencoder chain at the serving
// batch of 24 windows on each kernel: "mulmat" is the six matrix
// multiplies alone, "errorsbatch" adds the bias, tanh and L1 epilogue.
// Both report ns/window.
func BenchmarkMulMatAE(b *testing.B) {
	const n = 24
	rng := rand.New(rand.NewSource(15))
	ae := NewAutoencoder([]int{345, 160, 80, 40, 80, 160, 345}, rng)
	xs := randVecs(n, 345, rng)
	bufs := make([][]float64, len(ae.Sizes))
	for i, s := range ae.Sizes {
		bufs[i] = make([]float64, n*s)
	}
	for i, x := range xs {
		copy(bufs[0][i*345:], x)
	}
	kernels := []bool{false}
	if useAVX2 {
		kernels = append(kernels, true)
	}
	for _, avx2 := range kernels {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		b.Run(fmt.Sprintf("mulmat/kernel=%s", name), func(b *testing.B) {
			withKernel(avx2, func() {
				start := time.Now()
				for it := 0; it < b.N; it++ {
					for i, l := range ae.Layers {
						l.W.MulMat(bufs[i], n, bufs[i+1])
					}
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/window")
			})
		})
		b.Run(fmt.Sprintf("errorsbatch/kernel=%s", name), func(b *testing.B) {
			withKernel(avx2, func() {
				b.ReportAllocs()
				start := time.Now()
				for it := 0; it < b.N; it++ {
					ae.ErrorsBatch(xs)
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*n), "ns/window")
			})
		})
	}
}
