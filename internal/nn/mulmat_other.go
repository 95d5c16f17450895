//go:build !amd64

package nn

// useAVX2 is false off amd64: MulMat always runs the pure-Go kernel.
var useAVX2 = false

func (t *Tensor) mulMatAVX2(x []float64, n int, out []float64) { t.mulMatGo(x, n, out) }
