//go:build !amd64

package nn

// useActAVX2 is false off amd64: tanhRow and sigmoidRow run the scalar
// functions.
var useActAVX2 = false

func tanhLanes(v []float64) int    { return 0 }
func sigmoidLanes(v []float64) int { return 0 }
