package nn

// Fuzz targets for the model loaders. A snapshot either fails to load or
// yields a model that serves: every inference path runs without a panic,
// and the batched paths (which run on the MulMat kernel) reproduce the
// per-step ones bit for bit. Run one with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzLoadAutoencoder$' -fuzztime 30s ./internal/nn
//
// Crashers found this way are kept under testdata/fuzz as regression
// seeds, which plain `go test` replays.

import (
	"bytes"
	"math"
	"testing"
)

func FuzzLoadGRU(f *testing.F) {
	for _, mutate := range []func(*gruSnap){func(*gruSnap) {}, gruOverflow, gruNaN, gruInf} {
		f.Add(gruSnapBytes(f, mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadGRU(bytes.NewReader(data))
		if err != nil {
			return
		}
		seq := make([][]float64, 3)
		for i := range seq {
			seq[i] = make([]float64, m.In)
			for j := range seq[i] {
				seq[i][j] = float64(i+j%3) - 1
			}
		}
		wantZ, wantR := m.ForwardGates(seq)
		gotZ, gotR := m.ForwardGatesBatch(seq)
		for ts := range wantZ {
			for i := range wantZ[ts] {
				if !sameBits(gotZ[ts][i], wantZ[ts][i]) || !sameBits(gotR[ts][i], wantR[ts][i]) {
					t.Fatalf("step %d unit %d: batched gates diverged from ForwardGates", ts, i)
				}
			}
		}
		m.Predict(seq)
	})
}

func FuzzLoadAutoencoder(f *testing.F) {
	for _, mutate := range []func(*aeSnap){func(*aeSnap) {}, aeOverflow, aeNarrowOutput, aeNaN, aeInf} {
		f.Add(aeSnapBytes(f, mutate))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ae, err := LoadAutoencoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		xs := make([][]float64, 5)
		for i := range xs {
			xs[i] = make([]float64, ae.InputSize())
			for j := range xs[i] {
				xs[i][j] = float64((i+j)%5) - 2
			}
		}
		got := ae.ErrorsBatch(xs)
		for i, x := range xs {
			if want := ae.Error(x); !sameBits(got[i], want) {
				t.Fatalf("window %d: ErrorsBatch %v, Error %v", i, got[i], want)
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
