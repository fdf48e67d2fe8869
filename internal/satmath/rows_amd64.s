#include "textflag.h"
#include "go_asm.h"

// Each primitive runs its recurrence two words (one 128-bit register)
// at a time, then an odd last word in the low half of a register.
// Memory operands go through MOVOU, since Go slices are only 8-byte
// aligned. The loops load a pair's inputs before storing it and never
// read ahead, so an output may be an input (DDRoundI16's serial chain
// depends on it). The lane ops are exactly satmath's: PMAXUB is
// MaxU8x8, PSUBUSB after it is MSVStepU8x8's subtract, PADDSW is
// AddI16x4, PMAXSW is MaxI16x4.

// func msvRow(dst, src, cost []uint64, xB, bias uint64) (xE uint64)
TEXT ·msvRow(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ cost_base+48(FP), DX
	MOVQ xB+72(FP), X0
	PUNPCKLQDQ X0, X0
	MOVQ bias+80(FP), X1
	PUNPCKLQDQ X1, X1
	PXOR X2, X2 // row maximum
	XORQ AX, AX // byte offset
	MOVQ CX, BX
	SHRQ $1, BX
	JZ msvtail

msvpair:
	MOVOU (SI)(AX*1), X3
	MOVOU (DX)(AX*1), X4
	PMAXUB X0, X3
	PSUBUSB X4, X3 // max(cell, xB, cost) - cost
	PMAXUB X3, X2
	PADDQ X1, X3
	MOVOU X3, (DI)(AX*1)
	ADDQ $16, AX
	DECQ BX
	JNZ msvpair

msvtail:
	TESTQ $1, CX
	JZ msvdone
	MOVQ (SI)(AX*1), X3
	MOVQ (DX)(AX*1), X4
	PMAXUB X0, X3
	PSUBUSB X4, X3
	PUNPCKLQDQ X3, X3 // keep the empty high half out of the maximum
	PMAXUB X3, X2
	PADDQ X1, X3
	MOVQ X3, (DI)(AX*1)

msvdone:
	PSHUFD $0x4e, X2, X3
	PMAXUB X3, X2
	MOVQ X2, xE+88(FP)
	RET

// func msvFilter(prev, cur, cost []uint64, dsq []byte, p MSVParams) (xJ uint8, overflowed bool, at int)
//
// msvFilterGeneric's loop with its state in registers. Each special is
// one lane op on a register splatted to all 16 lanes: xB and xBv are
// PMAXUB, PSUBUSB and PADDUSB of xJ, the row maximum is folded across
// the lanes by four shuffle steps (quadwords, doublewords, words,
// bytes), and the overflow test is Overflow - xE saturating to zero.
#define SPLAT(arg, reg) MOVBQZX arg(FP), AX; MOVQ AX, reg; PUNPCKLBW reg, reg; PSHUFLW $0, reg, reg; PSHUFD $0, reg, reg

TEXT ·msvFilter(SB), NOSPLIT, $0-120
	MOVQ prev_base+0(FP), R8
	MOVQ prev_len+8(FP), R11
	SUBQ $2, R11
	SHLQ $3, R11 // row bytes
	MOVQ cur_base+24(FP), R9
	MOVQ cost_base+48(FP), DX
	MOVQ cost_len+56(FP), R10
	SHLQ $3, R10
	SUBQ R11, R10 // the last offset a cost row may start at
	MOVQ dsq_base+72(FP), SI
	MOVQ dsq_len+80(FP), CX
	SPLAT(p_Bias+96, X1)
	MOVQ AX, X5 // the bias in lane 0 alone: the diagonal's fill
	SPLAT(p_TBM+97, X8)
	SPLAT(p_TEC+98, X6)
	SPLAT(p_TJB+99, X7)
	SPLAT(p_Base+100, X9)
	SPLAT(p_Overflow+101, X10)
	PXOR X11, X11 // xJ
	XORQ BX, BX   // residue index
	TESTQ CX, CX
	JZ msvfdone

msvfresidue:
	MOVBQZX (SI)(BX*1), R12
	IMULQ R11, R12
	CMPQ R12, R10
	JGT msvfdone // past the table: stop before reading the row
	ADDQ DX, R12
	MOVO X11, X0
	PMAXUB X9, X0
	PSUBUSB X7, X0 // xB
	PSUBUSB X8, X0
	PADDUSB X1, X0 // xBv
	MOVOU (R8)(R11*1), X3
	PSLLO $1, X3
	POR X5, X3
	MOVOU X3, (R8) // the striped diagonal
	PXOR X2, X2    // row maximum
	XORQ AX, AX

msvfpair:
	MOVOU (R8)(AX*1), X3
	MOVOU (R12)(AX*1), X4
	PMAXUB X0, X3
	PSUBUSB X4, X3
	PMAXUB X3, X2
	PADDQ X1, X3
	MOVOU X3, 16(R9)(AX*1)
	ADDQ $16, AX
	CMPQ AX, R11
	JNE msvfpair

	XCHGQ R8, R9
	PSHUFD $0x4e, X2, X3
	PMAXUB X3, X2
	PSHUFD $0xb1, X2, X3
	PMAXUB X3, X2
	PSHUFLW $0xb1, X2, X3
	PSHUFHW $0xb1, X3, X3
	PMAXUB X3, X2
	MOVO X2, X3
	PSLLW $8, X3
	MOVO X2, X4
	PSRLW $8, X4
	POR X4, X3
	PMAXUB X3, X2 // xE
	MOVO X10, X3
	PSUBUSB X2, X3
	MOVQ X3, AX
	TESTQ AX, AX
	JZ msvfoverflow
	PSUBUSB X6, X2
	PMAXUB X2, X11
	INCQ BX
	CMPQ BX, CX
	JLT msvfresidue

msvfdone:
	MOVQ X11, AX
	MOVB AL, xJ+104(FP)
	MOVB $0, overflowed+105(FP)
	MOVQ BX, at+112(FP)
	RET

msvfoverflow:
	MOVQ X11, AX
	MOVB AL, xJ+104(FP)
	MOVB $1, overflowed+105(FP)
	MOVQ BX, at+112(FP)
	RET

// func vitMIRow(r *VitMI, xB uint64) (xE uint64)
//
// Thirteen rows and one offset take every general register but SP and
// BP; R14 and R15 are free in ABI0 code. Each row pointer is advanced
// past the whole pairs and the offset runs from minus their length up
// to zero, so the loop needs no count register.
TEXT ·vitMIRow(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), R15
	MOVQ VitMI_M+8(R15), AX
	ANDQ $-2, AX
	SHLQ $3, AX
	MOVQ VitMI_M(R15), DI
	ADDQ AX, DI
	MOVQ VitMI_I(R15), SI
	ADDQ AX, SI
	MOVQ VitMI_SrcM(R15), BX
	ADDQ AX, BX
	MOVQ VitMI_SrcI(R15), CX
	ADDQ AX, CX
	MOVQ VitMI_SrcD(R15), DX
	ADDQ AX, DX
	MOVQ VitMI_PrevM(R15), R8
	ADDQ AX, R8
	MOVQ VitMI_PrevI(R15), R9
	ADDQ AX, R9
	MOVQ VitMI_TMM(R15), R10
	ADDQ AX, R10
	MOVQ VitMI_TIM(R15), R11
	ADDQ AX, R11
	MOVQ VitMI_TDM(R15), R12
	ADDQ AX, R12
	MOVQ VitMI_TMI(R15), R13
	ADDQ AX, R13
	MOVQ VitMI_TII(R15), R14
	ADDQ AX, R14
	MOVQ VitMI_Emit(R15), R15
	ADDQ AX, R15
	NEGQ AX
	MOVQ xB+8(FP), X0
	PUNPCKLQDQ X0, X0
	PCMPEQW X1, X1
	PSLLW $15, X1 // row maximum, NegInf16 in every lane
	TESTQ AX, AX
	JZ vittail

vitpair:
	MOVOU (BX)(AX*1), X2
	MOVOU (R10)(AX*1), X3
	PADDSW X3, X2
	MOVOU (CX)(AX*1), X3
	MOVOU (R11)(AX*1), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	MOVOU (DX)(AX*1), X3
	MOVOU (R12)(AX*1), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	PMAXSW X0, X2
	MOVOU (R15)(AX*1), X3
	PADDSW X3, X2
	PMAXSW X2, X1
	MOVOU X2, (DI)(AX*1)
	MOVOU (R8)(AX*1), X2
	MOVOU (R13)(AX*1), X3
	PADDSW X3, X2
	MOVOU (R9)(AX*1), X3
	MOVOU (R14)(AX*1), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	MOVOU X2, (SI)(AX*1)
	ADDQ $16, AX
	JNZ vitpair

vittail:
	MOVQ r+0(FP), AX
	TESTQ $1, VitMI_M+8(AX)
	JZ vitdone
	MOVQ (BX), X2
	MOVQ (R10), X3
	PADDSW X3, X2
	MOVQ (CX), X3
	MOVQ (R11), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	MOVQ (DX), X3
	MOVQ (R12), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	PMAXSW X0, X2
	MOVQ (R15), X3
	PADDSW X3, X2
	PUNPCKLQDQ X2, X2 // keep the empty high half out of the maximum
	PMAXSW X2, X1
	MOVQ X2, (DI)
	MOVQ (R8), X2
	MOVQ (R13), X3
	PADDSW X3, X2
	MOVQ (R9), X3
	MOVQ (R14), X4
	PADDSW X4, X3
	PMAXSW X3, X2
	MOVQ X2, (SI)

vitdone:
	PSHUFD $0x4e, X1, X2
	PMAXSW X2, X1
	MOVQ X1, xE+16(FP)
	RET

// func addRow(dst, a, b []uint64)
TEXT ·addRow(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $1, BX
	JZ addtail

addpair:
	MOVOU (SI)(AX*1), X0
	MOVOU (DX)(AX*1), X1
	PADDSW X1, X0
	MOVOU X0, (DI)(AX*1)
	ADDQ $16, AX
	DECQ BX
	JNZ addpair

addtail:
	TESTQ $1, CX
	JZ adddone
	MOVQ (SI)(AX*1), X0
	MOVQ (DX)(AX*1), X1
	PADDSW X1, X0
	MOVQ X0, (DI)(AX*1)

adddone:
	RET

// func ddRound(d, src, w []uint64) (changed bool)
TEXT ·ddRound(SB), NOSPLIT, $0-73
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	PXOR X3, X3 // lanes that rose
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $1, BX
	JZ ddtail

ddpair:
	MOVOU (SI)(AX*1), X0
	MOVOU (DX)(AX*1), X1
	PADDSW X1, X0 // candidate
	MOVOU (DI)(AX*1), X1
	MOVO X0, X2
	PCMPGTW X1, X2
	POR X2, X3
	PMAXSW X0, X1
	MOVOU X1, (DI)(AX*1)
	ADDQ $16, AX
	DECQ BX
	JNZ ddpair

ddtail:
	TESTQ $1, CX
	JZ dddone
	MOVQ (SI)(AX*1), X0
	MOVQ (DX)(AX*1), X1
	PADDSW X1, X0
	MOVQ (DI)(AX*1), X1
	MOVO X0, X2
	PCMPGTW X1, X2
	POR X2, X3
	PMAXSW X0, X1
	MOVQ X1, (DI)(AX*1)

dddone:
	PMOVMSKB X3, AX
	TESTL AX, AX
	SETNE changed+72(FP)
	RET
