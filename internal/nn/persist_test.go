package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// Round-trip sanity plus pinned error paths for the snapshot loaders: a
// truncated stream, a dimension-corrupted tensor, a weight payload that
// disagrees with its declared shape, and an empty/degenerate Sizes chain
// must all fail at load with a diagnostic — never load silently and panic
// at first inference.

func TestGRUSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewGRUClassifier(8, 6, 3, rng)
	var buf bytes.Buffer
	if err := SaveGRU(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGRU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seq := randVecs(5, 8, rng)
	wantZ, _ := m.ForwardGates(seq)
	gotZ, _ := got.ForwardGates(seq)
	for ts := range wantZ {
		for i := range wantZ[ts] {
			if gotZ[ts][i] != wantZ[ts][i] {
				t.Fatalf("reloaded GRU diverged at step %d unit %d", ts, i)
			}
		}
	}
}

func TestLoadGRUTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := SaveGRU(&buf, NewGRUClassifier(8, 6, 3, rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGRU(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("LoadGRU accepted a truncated stream")
	}
}

// gruSnapBytes round-trips a model through its snapshot struct, letting
// the caller mutate the snapshot before re-encoding — a dim-corrupted
// model file without reaching into the gob wire format.
func gruSnapBytes(t testing.TB, mutate func(*gruSnap)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := SaveGRU(&buf, NewGRUClassifier(8, 6, 3, rng)); err != nil {
		t.Fatal(err)
	}
	var s gruSnap
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(s); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func corruptGRU(t *testing.T, mutate func(*gruSnap)) error {
	t.Helper()
	_, err := LoadGRU(bytes.NewReader(gruSnapBytes(t, mutate)))
	return err
}

func TestLoadGRUDimMismatch(t *testing.T) {
	cases := map[string]func(*gruSnap){
		"Uz not square":    func(s *gruSnap) { s.Tensors[1].C = 5 },
		"hidden mismatch":  func(s *gruSnap) { s.Hidden = 7 },
		"short weights":    func(s *gruSnap) { s.Tensors[0].W = s.Tensors[0].W[:10] },
		"missing tensor":   func(s *gruSnap) { s.Tensors = s.Tensors[:10] },
		"non-positive dim": func(s *gruSnap) { s.In = 0 },
	}
	for name, mutate := range cases {
		if err := corruptGRU(t, mutate); err == nil {
			t.Fatalf("%s: LoadGRU accepted the corrupted snapshot", name)
		} else if !strings.Contains(err.Error(), "nn:") {
			t.Fatalf("%s: undiagnostic error %v", name, err)
		}
	}
}

func TestAutoencoderSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ae := NewAutoencoder([]int{12, 6, 12}, rng)
	var buf bytes.Buffer
	if err := SaveAutoencoder(&buf, ae); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAutoencoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := randVecs(1, 12, rng)[0]
	if got.Error(x) != ae.Error(x) {
		t.Fatal("reloaded autoencoder diverged")
	}
}

// aeSnapBytes is gruSnapBytes for the autoencoder.
func aeSnapBytes(t testing.TB, mutate func(*aeSnap)) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	if err := SaveAutoencoder(&buf, NewAutoencoder([]int{12, 6, 12}, rng)); err != nil {
		t.Fatal(err)
	}
	var s aeSnap
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(s); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func corruptAE(t *testing.T, mutate func(*aeSnap)) error {
	t.Helper()
	_, err := LoadAutoencoder(bytes.NewReader(aeSnapBytes(t, mutate)))
	return err
}

func TestLoadAutoencoderErrorPaths(t *testing.T) {
	cases := map[string]func(*aeSnap){
		"empty sizes":       func(s *aeSnap) { s.Sizes = nil },
		"single size":       func(s *aeSnap) { s.Sizes = s.Sizes[:1] },
		"zero-width layer":  func(s *aeSnap) { s.Sizes[1] = 0 },
		"layer dim corrupt": func(s *aeSnap) { s.Tensors[0].R = 99 },
		"bias dim corrupt":  func(s *aeSnap) { s.Tensors[1].C = 2 },
		"short weights":     func(s *aeSnap) { s.Tensors[2].W = s.Tensors[2].W[:3] },
		"missing tensors":   func(s *aeSnap) { s.Tensors = s.Tensors[:3] },
		"width mismatch":    aeNarrowOutput,
	}
	for name, mutate := range cases {
		if err := corruptAE(t, mutate); err == nil {
			t.Fatalf("%s: LoadAutoencoder accepted the corrupted snapshot", name)
		}
	}

	// Truncated stream.
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	if err := SaveAutoencoder(&buf, NewAutoencoder([]int{12, 6, 12}, rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAutoencoder(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("LoadAutoencoder accepted a truncated stream")
	}
}

// Crafted snapshots for load bugs that used to pass silently. Each is
// also a seed of the loader fuzz targets.

// wrapDim is 2⁶⁰ on 64-bit platforms: 16·wrapDim wraps to 0 in int.
const wrapDim = 1 << (bits.UintSize - 4)

// aeOverflow declares a first layer of 16×wrapDim weights with none in
// the payload: the element count wraps to 0, which matched the empty
// slice, and the model loaded.
func aeOverflow(s *aeSnap) {
	*s = aeSnap{Sizes: []int{wrapDim, 16}, Tensors: []tensorSnap{{R: 16, C: wrapDim}, {R: 16, C: 1, W: make([]float64, 16)}}}
}

// gruOverflow is the same wrap-around on Wz, Hidden×In = 16×wrapDim.
func gruOverflow(s *gruSnap) {
	s.In, s.Hidden = wrapDim, 16
	s.Tensors[0] = tensorSnap{R: 16, C: wrapDim}
}

// aeNarrowOutput turns the 12→6→12 chain into a consistent 12→6→11 one.
// Every tensor matches its shape, but the L1 error compares 12 inputs
// with 11 outputs, so the first inference indexed past the output.
func aeNarrowOutput(s *aeSnap) {
	s.Sizes[2] = 11
	s.Tensors[2] = tensorSnap{R: 11, C: 6, W: s.Tensors[2].W[:66]}
	s.Tensors[3] = tensorSnap{R: 11, C: 1, W: s.Tensors[3].W[:11]}
}

func aeNaN(s *aeSnap)   { s.Tensors[0].W[3] = math.NaN() }
func aeInf(s *aeSnap)   { s.Tensors[3].W[0] = math.Inf(-1) }
func gruNaN(s *gruSnap) { s.Tensors[4].W[7] = math.NaN() }
func gruInf(s *gruSnap) { s.Tensors[10].W[1] = math.Inf(1) }

func TestLoadRejectsOverflowingShape(t *testing.T) {
	if err := corruptAE(t, aeOverflow); !errors.Is(err, ErrShape) {
		t.Fatalf("autoencoder with a 16×wrapDim layer: got %v, want ErrShape", err)
	}
	if err := corruptGRU(t, gruOverflow); !errors.Is(err, ErrShape) {
		t.Fatalf("GRU with a 16×wrapDim Wz: got %v, want ErrShape", err)
	}
}

func TestLoadRejectsNonFiniteWeights(t *testing.T) {
	for name, mutate := range map[string]func(*aeSnap){"NaN weight": aeNaN, "-Inf bias": aeInf} {
		if err := corruptAE(t, mutate); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("autoencoder %s: got %v, want ErrNonFinite", name, err)
		}
	}
	for name, mutate := range map[string]func(*gruSnap){"NaN in Ur": gruNaN, "+Inf in Wo": gruInf} {
		if err := corruptGRU(t, mutate); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("GRU %s: got %v, want ErrNonFinite", name, err)
		}
	}
}
