package nn

import "fmt"

// GRULockstep steps up to K independent GRU recurrences in lockstep: the
// K hidden states are stacked as rows of a K×Hidden state matrix, and one
// Step advances every active row with a single MulMat per projection —
// Wz/Wr/Wh against the staged inputs and Uz/Ur/Uh against the state
// matrix — instead of K separate MulVec passes. This is the
// cross-connection half of the batching story: ForwardGatesBatch hoists
// the input projections of one sequence, the lockstep hoists the
// recurrent projections across sequences, which the recurrence itself
// can never batch within a single connection.
//
// Bit-identity contract: MulMat computes each output row with MulVec's
// exact per-element accumulation order, and the element-wise gate
// expressions below are copied from GRUClassifier.step operand for
// operand (through the same sigmoidRow/tanhRow), so after T steps a row's Z/R sequence is Float64bits-identical
// to ForwardGates over the same inputs — regardless of which other rows
// shared the fleet, of the fleet width, and of when rows were moved
// (Move copies bits, and no arithmetic crosses rows).
//
// Usage protocol (the engine's ragged scheduler drives it): Reset(row) at
// the start of a sequence, StageInput(row, x) for every active row, then
// Step(n) with the active rows compacted into the prefix [0, n). Z(row)
// and R(row) expose the step's gate activations until the next Step.
// Move(dst, src) relocates a row's recurrence state during compaction;
// call it only after the src row's gates have been harvested.
//
// A GRULockstep is single-goroutine state; open one per worker. The
// underlying model is read-only and may be shared.
type GRULockstep struct {
	m *GRUClassifier
	k int

	// All buffers are K×In or K×Hidden, flat row-major.
	x          []float64 // staged inputs
	h          []float64 // hidden states h_{t-1}, updated in place by Step
	z, r, c    []float64 // gate / candidate outputs of the last Step
	az, ar, ah []float64 // input projections W·x
	u          []float64 // recurrent projection scratch (one at a time, like step's tmp)
	rh         []float64 // r ⊙ h_{t-1}
}

// NewLockstep opens a lockstep fleet of k rows over the model.
func (m *GRUClassifier) NewLockstep(k int) *GRULockstep {
	if k < 1 {
		panic(fmt.Sprintf("nn: NewLockstep width %d", k))
	}
	kh := k * m.Hidden
	return &GRULockstep{
		m: m, k: k,
		x: make([]float64, k*m.In),
		h: make([]float64, kh),
		z: make([]float64, kh), r: make([]float64, kh), c: make([]float64, kh),
		az: make([]float64, kh), ar: make([]float64, kh), ah: make([]float64, kh),
		u: make([]float64, kh), rh: make([]float64, kh),
	}
}

// Width reports the fleet capacity K.
func (s *GRULockstep) Width() int { return s.k }

// Reset zeroes a row's hidden state, starting a fresh sequence (h_0 = 0,
// exactly like ForwardGates).
func (s *GRULockstep) Reset(row int) {
	H := s.m.Hidden
	clear(s.h[row*H : (row+1)*H])
}

// StageInput stages row's next input vector x_t for the coming Step.
func (s *GRULockstep) StageInput(row int, x []float64) {
	if len(x) != s.m.In {
		panic(fmt.Sprintf("nn: lockstep input width %d, want %d", len(x), s.m.In))
	}
	copy(s.x[row*s.m.In:(row+1)*s.m.In], x)
}

// Step advances rows [0, n) by one recurrence step: three MulMats against
// the staged inputs, three against the state matrix, and the element-wise
// gate arithmetic of GRUClassifier.step per row. Gates land in Z/R; the
// state matrix is updated in place.
func (s *GRULockstep) Step(n int) {
	if n < 1 || n > s.k {
		panic(fmt.Sprintf("nn: lockstep Step(%d) outside fleet of %d", n, s.k))
	}
	m := s.m
	H := m.Hidden
	x, h := s.x[:n*m.In], s.h[:n*H]
	u := s.u[:n*H]
	m.Wz.MulMat(x, n, s.az[:n*H])
	m.Uz.MulMat(h, n, u)
	for b := 0; b < n; b++ {
		z, az, uz := s.z[b*H:(b+1)*H], s.az[b*H:(b+1)*H], u[b*H:(b+1)*H]
		for i := range z {
			z[i] = az[i] + uz[i] + m.Bz.W[i]
		}
	}
	sigmoidRow(s.z[:n*H])
	m.Wr.MulMat(x, n, s.ar[:n*H])
	m.Ur.MulMat(h, n, u)
	for b := 0; b < n; b++ {
		r, ar, ur := s.r[b*H:(b+1)*H], s.ar[b*H:(b+1)*H], u[b*H:(b+1)*H]
		for i := range r {
			r[i] = ar[i] + ur[i] + m.Br.W[i]
		}
	}
	sigmoidRow(s.r[:n*H])
	rh := s.rh[:n*H]
	for i := range rh {
		rh[i] = s.r[i] * h[i]
	}
	m.Wh.MulMat(x, n, s.ah[:n*H])
	m.Uh.MulMat(rh, n, u)
	for b := 0; b < n; b++ {
		c, ah, uh := s.c[b*H:(b+1)*H], s.ah[b*H:(b+1)*H], u[b*H:(b+1)*H]
		for i := range c {
			c[i] = ah[i] + uh[i] + m.Bh.W[i]
		}
	}
	tanhRow(s.c[:n*H])
	// h_t = (1-z) ⊙ h_{t-1} + z ⊙ h̃, element-local so in-place is safe.
	for i := range h {
		h[i] = (1-s.z[i])*h[i] + s.z[i]*s.c[i]
	}
}

// Z exposes row's update-gate activations from the last Step. The view is
// valid until the next Step; copy what must outlive it.
func (s *GRULockstep) Z(row int) []float64 {
	H := s.m.Hidden
	return s.z[row*H : (row+1)*H]
}

// R exposes row's reset-gate activations from the last Step, under Z's
// lifetime contract.
func (s *GRULockstep) R(row int) []float64 {
	H := s.m.Hidden
	return s.r[row*H : (row+1)*H]
}

// Move copies src's recurrence state into dst — the scheduler's
// compaction primitive. Only the hidden state moves (bits unchanged);
// the src row's last gates must already have been harvested, and dst's
// next input must be staged before the next Step.
func (s *GRULockstep) Move(dst, src int) {
	if dst == src {
		return
	}
	H := s.m.Hidden
	copy(s.h[dst*H:(dst+1)*H], s.h[src*H:(src+1)*H])
}
