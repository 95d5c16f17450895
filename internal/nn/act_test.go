package nn

// Tests for the activation kernels: tanhRow and sigmoidRow on the AVX2+FMA
// assembly kernel against the scalar math.Tanh and sigmoid, compared by
// math.Float64bits; a check that the kernel choice follows the standard
// library's math.Exp under GODEBUG; fuzz targets; and the per-element
// benchmark.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// actKernel names the activation kernel this process picked at init.
func actKernel() string {
	if useActAVX2 {
		return "AVX2+FMA assembly"
	}
	return "scalar"
}

// requireActKernel skips on hosts where tanhRow and sigmoidRow can only
// run the scalar code, and logs which kernel is active otherwise.
func requireActKernel(t testing.TB) {
	t.Helper()
	if !useActAVX2 {
		t.Skip("activation kernel: scalar (no AVX2, or math.Exp is not on its FMA branch); nothing to compare against")
	}
	t.Log("activation kernel: AVX2+FMA assembly, checked against math.Tanh and sigmoid")
}

// withAct runs f with the activation kernel on or off, restoring the
// host's choice afterwards.
func withAct(on bool, f func()) {
	saved := useActAVX2
	useActAVX2 = on
	defer func() { useActAVX2 = saved }()
	f()
}

// tanhMax is math.tanh's cut above which it returns ±1 without Exp.
const tanhMax = 0.5 * 8.8029691931113054295988e+01

// actEdges are the inputs around which either function changes method:
// math.tanh's rational/exp switch and its ±1 cut, the kernels' sigmoid
// cut, and the point below which exp(-|x|) turns subnormal.
var actEdges = []float64{0.625, tanhMax, 708, 708.75, 1.0 / (1 << 28)}

// actSpecials are the values no kernel block may get wrong.
var actSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-315, 1e-300,
	math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Float64frombits(0xfff0000000000001),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	1, -1, 20, -20, 45, -45, 700, -700, 745, -746,
}

// actInput fills v with a mixture: random bit patterns, Gaussian
// pre-activations at three scales, wide uniform draws, values within a
// few ulps of each edge, and the specials. The mixture is drawn per run
// of 16 elements, so most blocks of four are in the kernel's range and
// run on it.
func actInput(v []float64, rng *rand.Rand) {
	kind := 0
	for i := range v {
		if i%16 == 0 {
			kind = rng.Intn(8)
		}
		var x float64
		switch kind {
		case 0:
			x = math.Float64frombits(rng.Uint64())
		case 1:
			x = rng.NormFloat64()
		case 2:
			x = rng.NormFloat64() * 0.3
		case 3:
			x = rng.NormFloat64() * 8
		case 4:
			x = (rng.Float64()*2 - 1) * 800
		case 5:
			e := actEdges[rng.Intn(len(actEdges))]
			x = math.Float64frombits(math.Float64bits(e) + uint64(rng.Intn(17)) - 8)
			if rng.Intn(2) == 0 {
				x = -x
			}
		case 6:
			x = actSpecials[rng.Intn(len(actSpecials))]
		default:
			// One special per block of four, so the fallback block runs
			// between vector blocks.
			if i%4 == 3 && rng.Intn(4) == 0 {
				x = actSpecials[rng.Intn(len(actSpecials))]
			} else {
				x = rng.NormFloat64() * 2
			}
		}
		v[i] = x
	}
}

// checkRows applies row to consecutive rows of v, of lengths cycling
// through 0..33 (so they start at every alignment), once with the kernel
// and once without, and compares the results by Float64bits.
func checkRows(t *testing.T, name string, v []float64, row func([]float64)) {
	t.Helper()
	want := append([]float64(nil), v...)
	got := append([]float64(nil), v...)
	for _, on := range []bool{false, true} {
		out := want
		if on {
			out = got
		}
		withAct(on, func() {
			for off, l := 0, 0; off < len(out); off, l = off+l, (l+1)%34 {
				row(out[off:min(off+l, len(out))])
			}
		})
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s(%v = %#x): kernel %v (%#x), scalar %v (%#x)", name, v[i], math.Float64bits(v[i]),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestKernelTanhSigmoidBitIdentity(t *testing.T) {
	requireActKernel(t)
	const total, chunk = 10_240_000, 1 << 16
	rng := rand.New(rand.NewSource(21))
	v := make([]float64, chunk)
	for done := 0; done < total; done += chunk {
		actInput(v, rng)
		checkRows(t, "tanh", v, tanhRow)
		checkRows(t, "sigmoid", v, sigmoidRow)
	}
	// Every edge and special at every lane position of a block.
	for _, x := range append(append([]float64(nil), actSpecials...), actEdges...) {
		for lane := 0; lane < 4; lane++ {
			row := make([]float64, 12)
			actInput(row, rng)
			for i := range row {
				if i%4 == lane {
					row[i] = x
				}
			}
			checkRows(t, "tanh", row, tanhRow)
			checkRows(t, "sigmoid", row, sigmoidRow)
		}
	}
}

// TestKernelActLanes pins the kernels' contract with lanesRow: they
// write whole blocks up to the first one they decline, and report how
// far they got.
func TestKernelActLanes(t *testing.T) {
	requireActKernel(t)
	v := []float64{0.1, -0.2, 1, -3, 0.5, math.NaN(), 2, 3, 4, 5, 6, 7}
	if n := tanhLanes(append([]float64(nil), v...)); n != 4 {
		t.Fatalf("tanhLanes stopped after %d elements, want 4 (NaN in the second block)", n)
	}
	v[5] = 50 // past ½·MAXLOG: scalar tanh's ±1 case
	if n := tanhLanes(append([]float64(nil), v...)); n != 4 {
		t.Fatalf("tanhLanes stopped after %d elements, want 4 (|x| > ½·MAXLOG in the second block)", n)
	}
	if n := sigmoidLanes(append([]float64(nil), v...)); n != 12 {
		t.Fatalf("sigmoidLanes stopped after %d elements, want 12", n)
	}
	v[10] = -709
	if n := sigmoidLanes(append([]float64(nil), v...)); n != 8 {
		t.Fatalf("sigmoidLanes stopped after %d elements, want 8 (|x| > 708 in the third block)", n)
	}
}

// TestKernelActDispatch checks the kernel this process picked against the
// scalar functions, without flipping the choice. Run on its own it covers
// the host's default; TestKernelActDispatchGODEBUG re-runs it with the
// runtime's FMA or AVX2 support turned off.
func TestKernelActDispatch(t *testing.T) {
	probe := math.Float64bits(math.Exp(1.253))
	t.Logf("activation kernel: %s, math.Exp(1.253) = %#x", actKernel(), probe)
	if useActAVX2 && probe != 0x400c01b3019a468f {
		t.Fatal("the kernel replays math.Exp's FMA branch, but math.Exp is not on it")
	}
	rng := rand.New(rand.NewSource(22))
	v := make([]float64, 1<<20)
	actInput(v, rng)
	got := append([]float64(nil), v...)
	tanhRow(got)
	for i, x := range v {
		if want := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s kernel: tanh(%v) = %#x, math.Tanh %#x", actKernel(), x, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	copy(got, v)
	sigmoidRow(got)
	for i, x := range v {
		if want := sigmoid(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s kernel: sigmoid(%v) = %#x, scalar %#x", actKernel(), x, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// TestKernelActDispatchGODEBUG re-executes this test binary with the
// runtime's FMA, then AVX2, support turned off. math.Exp leaves its FMA
// branch under cpu.fma=off (unless GOAMD64=v3 or higher makes FMA a
// requirement the runtime cannot drop), and the kernel must follow it;
// under cpu.avx2=off it may stay on. Either way the child checks the
// kernel it got against the scalar code.
func TestKernelActDispatchGODEBUG(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the activation kernel exists on amd64 only")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot find the test binary: %v", err)
	}
	kernelLine := regexp.MustCompile(`activation kernel: ([^\n]+)`)
	for _, setting := range []string{"cpu.fma=off", "cpu.avx2=off"} {
		godebug := setting
		if prev := os.Getenv("GODEBUG"); prev != "" {
			godebug = prev + "," + setting
		}
		cmd := exec.Command(exe, "-test.run=^TestKernelActDispatch$", "-test.v", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", godebug, err, out)
		}
		m := kernelLine.FindSubmatch(out)
		if m == nil || !strings.Contains(string(out), "--- PASS: TestKernelActDispatch") {
			t.Fatalf("GODEBUG=%s: the child did not run the dispatch check:\n%s", godebug, out)
		}
		t.Logf("GODEBUG=%s: activation kernel: %s; bit-identical to the scalar code", godebug, strings.TrimSpace(string(m[1])))
	}
}

// fuzzFloats reads data as little-endian float64 bit patterns.
func fuzzFloats(data []byte) []float64 {
	v := make([]float64, len(data)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v
}

// fuzzSeeds are rows of specials and edges, as bytes.
func fuzzSeeds(f *testing.F) {
	rows := [][]float64{
		{},
		{0.5},
		{0.1, -0.7, 3, -40},
		actEdges,
		actSpecials,
	}
	for _, row := range rows {
		b := make([]byte, 8*len(row))
		for i, x := range row {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		f.Add(b)
	}
}

func fuzzRow(f *testing.F, row func([]float64), scalar func(float64) float64) {
	if !useActAVX2 {
		f.Skip("activation kernel: scalar; nothing to compare against")
	}
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fuzzFloats(data)
		got := append([]float64(nil), v...)
		row(got)
		for i, x := range v {
			if want := scalar(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("element %d of %d, input %#x: kernel %#x, scalar %#x",
					i, len(v), math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}

func FuzzTanhRow(f *testing.F)    { fuzzRow(f, tanhRow, math.Tanh) }
func FuzzSigmoidRow(f *testing.F) { fuzzRow(f, sigmoidRow, sigmoid) }

// BenchmarkTanhRow times tanhRow and sigmoidRow per element on Gaussian
// pre-activations (σ = 2, the spread of the autoencoder's hidden layers)
// in rows of 160, on the scalar code and, where the host has it, on the
// kernel.
func BenchmarkTanhRow(b *testing.B) {
	const rowLen, rows = 160, 64
	rng := rand.New(rand.NewSource(23))
	src := make([]float64, rowLen*rows)
	for i := range src {
		src[i] = rng.NormFloat64() * 2
	}
	v := make([]float64, len(src))
	kernels := []bool{false}
	if useActAVX2 {
		kernels = append(kernels, true)
	}
	for _, fn := range []struct {
		name string
		row  func([]float64)
	}{{"tanh", tanhRow}, {"sigmoid", sigmoidRow}} {
		for _, on := range kernels {
			name := "go"
			if on {
				name = "avx2"
			}
			b.Run(fmt.Sprintf("%s/kernel=%s", fn.name, name), func(b *testing.B) {
				withAct(on, func() {
					var elapsed time.Duration
					for it := 0; it < b.N; it++ {
						copy(v, src)
						start := time.Now()
						for r := 0; r < rows; r++ {
							fn.row(v[r*rowLen : (r+1)*rowLen])
						}
						elapsed += time.Since(start)
					}
					b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*len(src)), "ns/element")
				})
			})
		}
	}
}
