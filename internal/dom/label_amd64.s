//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// The eight constants of the sweep, broadcast once per word (LabelSel's field
// order), then zero and all-ones.
#define MP   Y8
#define QP   Y9
#define OP   Y10
#define SELM Y11
#define SELQ Y12
#define SELO Y13
#define FLIP Y14
#define FULL Y15
#define ZERO Y6
#define ONES Y7

// LSTEP ORs into AX, at bit position sh, the 8 *dead* bits of entries off/4 …
// off/4+7 of the label columns at SI (med), DX (quart), CX (oct): a lane is
// dead when its mask x is zero or bit x − 1 of the set at BX is set. It stores
// the 8 masks x at R8 + off before turning them into gather indices.
//
// x = ((dm&selM | dq&selQ&^dm | do&selO&^dm&^dq) ^ flip) & full, label.go's
// identity. The set is gathered as dwords: dword (x−1)>>5, bit (x−1)&31. The
// gather's mask is the x ≠ 0 lanes, and a masked-off lane is not read, so the
// index 0x07FFFFFF that x = 0 produces never reaches memory; such a lane keeps
// the zero the destination was cleared to and is reported dead by its x = 0
// mask. The gather clears its mask register, hence one per step. Y0, Y1, Y2
// are dm, dq, do until x is in Y3; Y4 is the x = 0 mask from VPCMPEQD on.
#define LSTEP(off, sh)         \
	VPXOR      off(SI), MP, Y0    \
	VPXOR      off(DX), QP, Y1    \
	VPXOR      off(CX), OP, Y2    \
	VPAND      Y0, SELM, Y3       \
	VPAND      Y1, SELQ, Y4       \
	VPANDN     Y4, Y0, Y4         \
	VPOR       Y4, Y3, Y3         \
	VPAND      Y2, SELO, Y4       \
	VPANDN     Y4, Y0, Y4         \
	VPANDN     Y4, Y1, Y4         \
	VPOR       Y4, Y3, Y3         \
	VPXOR      FLIP, Y3, Y3       \
	VPAND      FULL, Y3, Y3       \
	VMOVDQU    Y3, off(R8)        \
	VPCMPEQD   ZERO, Y3, Y4       \
	VPADDD     ONES, Y3, Y3       \
	VPSRLD     $5, Y3, Y5         \
	VPSLLD     $27, Y3, Y3        \
	VPSRLD     $27, Y3, Y3        \
	VPXOR      ONES, Y4, Y1       \
	VPXOR      Y2, Y2, Y2         \
	VPGATHERDD Y1, (BX)(Y5*4), Y2 \
	VPSRLVD    Y3, Y2, Y2         \
	VPSLLD     $31, Y2, Y2        \
	VPOR       Y4, Y2, Y2         \
	VMOVMSKPS  Y2, R10            \
	SHLQ       $sh, R10           \
	ORQ        R10, AX

// func labelWordAVX2(med, quart, oct *uint32, s *LabelSel, seen *uint64, xs *[64]uint32) uint64
TEXT ·labelWordAVX2(SB), NOSPLIT, $0-56
	MOVQ med+0(FP), SI
	MOVQ quart+8(FP), DX
	MOVQ oct+16(FP), CX
	MOVQ s+24(FP), DI
	MOVQ seen+32(FP), BX
	MOVQ xs+40(FP), R8

	VPBROADCASTD LabelSel_mp(DI), MP
	VPBROADCASTD LabelSel_qp(DI), QP
	VPBROADCASTD LabelSel_op(DI), OP
	VPBROADCASTD LabelSel_selM(DI), SELM
	VPBROADCASTD LabelSel_selQ(DI), SELQ
	VPBROADCASTD LabelSel_selO(DI), SELO
	VPBROADCASTD LabelSel_flip(DI), FLIP
	VPBROADCASTD LabelSel_full(DI), FULL
	VPXOR        ZERO, ZERO, ZERO
	VPCMPEQD     ONES, ONES, ONES

	XORQ AX, AX
	LSTEP(0, 0)
	LSTEP(32, 8)
	LSTEP(64, 16)
	LSTEP(96, 24)
	LSTEP(128, 32)
	LSTEP(160, 40)
	LSTEP(192, 48)
	LSTEP(224, 56)
	NOTQ AX

	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
