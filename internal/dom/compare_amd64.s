//go:build amd64 && !purego

#include "textflag.h"

// The compare predicates of VCMPPS, ordered: false when either side is NaN,
// and −0 = +0, so each bit is exactly Go's p[i] < q[i] or p[i] == q[i].
#define LT $0x11
#define EQ $0x00

// The lane indices of one YMM register, compared against the lane count of
// the top group to build its load mask.
DATA laneIndex<>+0(SB)/4, $0
DATA laneIndex<>+4(SB)/4, $1
DATA laneIndex<>+8(SB)/4, $2
DATA laneIndex<>+12(SB)/4, $3
DATA laneIndex<>+16(SB)/4, $4
DATA laneIndex<>+20(SB)/4, $5
DATA laneIndex<>+24(SB)/4, $6
DATA laneIndex<>+28(SB)/4, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $32

// func compareAVX2(p, q *float32, d int) (lt, eq uint32)
//
// The d coordinates are compared eight at a time, from the top group of
// 1–8 down to coordinate 0, each group's two verdict bytes shifted in below
// the ones before. The top group is loaded with VMASKMOVPS: its lanes past
// d are neither read nor compared equal. d ≥ 1.
TEXT ·compareAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ q+8(FP), DI
	MOVQ d+16(FP), CX

	LEAQ         -1(CX), DX
	ANDQ         $-8, DX                // DX: the top group's first coordinate
	SUBQ         DX, CX                 // CX: its lane count, 1–8
	MOVQ         CX, X2
	VPBROADCASTD X2, Y2
	VPCMPGTD     laneIndex<>(SB), Y2, Y2 // lane i < CX
	VMASKMOVPS   (SI)(DX*4), Y2, Y0
	VMASKMOVPS   (DI)(DX*4), Y2, Y1
	VCMPPS       LT, Y1, Y0, Y3
	VCMPPS       EQ, Y1, Y0, Y4
	VANDPS       Y2, Y4, Y4              // masked lanes load 0 == 0
	VMOVMSKPS    Y3, AX
	VMOVMSKPS    Y4, BX

lower:
	SUBQ      $8, DX
	JLT       done
	VMOVUPS   (SI)(DX*4), Y0
	VCMPPS    LT, (DI)(DX*4), Y0, Y3
	VCMPPS    EQ, (DI)(DX*4), Y0, Y4
	VMOVMSKPS Y3, R8
	VMOVMSKPS Y4, R9
	SHLL      $8, AX
	ORL       R8, AX
	SHLL      $8, BX
	ORL       R9, BX
	JMP       lower

done:
	VZEROUPPER
	MOVL AX, lt+24(FP)
	MOVL BX, eq+28(FP)
	RET
