//go:build !amd64

package tensor

// Non-amd64 platforms use the portable loops; the compiler's auto-generated
// code is the same on every path, so bit-identity across builds is trivial.

const hasAVX2 = false

func axpyF64(alpha float64, x, y []float64) { axpyF64Generic(alpha, x, y) }
