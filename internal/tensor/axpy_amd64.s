#include "textflag.h"

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2F64(alpha float64, x, y []float64)
//
// y[i] += alpha * x[i]. Separate VMULPD/VADDPD (no FMA): each lane performs
// exactly the two IEEE operations of the scalar loop, so the result is
// bit-identical to the pure-Go fallback. The caller guarantees
// len(y) == len(x); the element count is taken from y.
TEXT ·axpyAVX2F64(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSD alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   f64tail

	// Start the hot loop on a cache line, so its fetch alignment does not
	// depend on where the linker places this function (which moves whenever
	// unrelated code is added or deleted).
	PCALIGN $64

f64loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  f64loop8

f64tail:
	CMPQ AX, CX
	JGE  f64done

f64tailloop:
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JLT  f64tailloop

f64done:
	VZEROUPPER
	RET
