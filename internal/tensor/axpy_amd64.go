package tensor

// Assembly kernels (axpy_amd64.s). They process any length, but the Go
// wrappers below only dispatch to them above a small cutoff: the call itself
// costs a few nanoseconds, which dominates for very short rows.

func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
func axpyAVX2F64(alpha float64, x, y []float64)

// hasAVX2 reports whether the CPU and OS support the AVX2 kernels: AVX and
// OSXSAVE advertised, XMM+YMM state enabled by the OS (XGETBV), and the AVX2
// feature bit set.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// axpyMinLen is the row length below which the scalar loop wins (call
// overhead exceeds the vector speedup).
const axpyMinLen = 8

func axpyF64(alpha float64, x, y []float64) {
	if hasAVX2 && len(x) >= axpyMinLen {
		axpyAVX2F64(alpha, x, y[:len(x)])
		return
	}
	axpyF64Generic(alpha, x, y)
}
