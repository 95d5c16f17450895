package nn

import "math"

// useActAVX2 routes tanhRow and sigmoidRow to the AVX2+FMA kernels in
// act_amd64.s. They replay the FMA branch of the standard library's
// math.Exp, so they are on only where math.Exp itself runs that branch:
// CPUID alone is not enough, because the runtime may have turned FMA off
// (GODEBUG=cpu.fma=off), and then math.Exp rounds differently. The probe
// input's result differs in the last bit between the two branches.
// Tests flip the variable to compare the kernels against the scalar code.
var useActAVX2 = useAVX2 && math.Float64bits(math.Exp(1.253)) == 0x400c01b3019a468f

// tanhLanes and sigmoidLanes apply math.Tanh and sigmoid in place to
// v's elements, four at a time, up to the first block of four holding a
// lane the kernel leaves to the scalar code (see act_amd64.s). They
// return the number of elements written, a multiple of four; len(v) must
// be one too.
//
//go:noescape
func tanhLanes(v []float64) int

//go:noescape
func sigmoidLanes(v []float64) int
