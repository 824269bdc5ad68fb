//go:build amd64 && !purego

#include "textflag.h"

// The compare predicates of VCMPPS, ordered (false when either side is NaN,
// and −0 = +0), so each bit is exactly Go's v <= pv (GE) or v < pv (GT): the
// broadcast query is the first operand, hence pv ≥ v and pv > v.
#define GE $0x0D
#define GT $0x0E

// STEP ORs into acc the 8 verdict bits of lanes off/4 … off/4+7 of the column
// at SI against the query coordinate broadcast in Y0, at bit position sh.
#define STEP(pred, off, sh, acc) \
	VCMPPS    pred, off(SI), Y0, Y1 \
	VMOVMSKPS Y1, R10               \
	SHLQ      $sh, R10              \
	ORQ       R10, acc

// WORD sets acc to the 64-lane verdict word of the column at SI.
#define WORD(pred, acc) \
	VCMPPS    pred, (SI), Y0, Y1 \
	VMOVMSKPS Y1, acc            \
	STEP(pred, 32, 8, acc)       \
	STEP(pred, 64, 16, acc)      \
	STEP(pred, 96, 24, acc)      \
	STEP(pred, 128, 32, acc)     \
	STEP(pred, 160, 40, acc)     \
	STEP(pred, 192, 48, acc)     \
	STEP(pred, 224, 56, acc)

// func leqWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64) uint64
TEXT ·leqWordAVX2(SB), NOSPLIT, $0-48
	MOVQ col0+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ k+16(FP), CX
	MOVQ pq+24(FP), DI
	MOVQ alive+32(FP), AX

leqColumn:
	VBROADCASTSS (DI), Y0
	WORD(GE, R8)
	ANDQ         R8, AX
	JZ           leqDone
	ADDQ         DX, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          leqColumn

leqDone:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func relWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64, leq, lt *uint64)
TEXT ·relWordAVX2(SB), NOSPLIT, $0-56
	MOVQ col0+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ k+16(FP), CX
	MOVQ pq+24(FP), DI
	MOVQ alive+32(FP), AX
	MOVQ leq+40(FP), R11
	MOVQ lt+48(FP), R12

relColumn:
	VBROADCASTSS (DI), Y0
	WORD(GE, R8)
	WORD(GT, R9)
	ANDQ         AX, R8
	ANDQ         AX, R9
	MOVQ         R8, (R11)
	MOVQ         R9, (R12)
	ADDQ         DX, SI
	ADDQ         $4, DI
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         CX
	JNZ          relColumn

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
