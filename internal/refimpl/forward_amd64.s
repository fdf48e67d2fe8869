#include "textflag.h"

// profile.OddsNode: seven float64s, 56 bytes a node. forward_test.go
// pins the stride and the field order.
#define MM 0
#define IM 8
#define DM 16
#define MI 24
#define II 32
#define MD 40
#define DD 48
#define NODE 56

// BCAST puts transition off of the node at BX in both lanes of reg.
#define BCAST(off, reg) MOVSD off(BX), reg; UNPCKLPD reg, reg

// func forwardRowPair(row []float64, t []profile.OddsNode, msca, mscb []float64, ea, eb float64) (xEa, xEb float64)
//
// Forward's inner loop with each scalar a register of two lanes. A node
// k is 48 bytes of row at DI, the M, I and D pairs; BX is t[k-1], the
// transitions into node k, and NODE(BX) is t[k]. The sums associate as
// Forward's do; IEEE addition and multiplication commute, so operand
// order does not change a bit.
TEXT ·forwardRowPair(SB), NOSPLIT, $0-128
	MOVQ  row_base+0(FP), DI
	MOVQ  t_base+24(FP), BX
	MOVQ  t_len+32(FP), CX
	MOVQ  msca_base+48(FP), SI
	MOVQ  mscb_base+72(FP), DX
	MOVSD ea+96(FP), X0
	MOVHPD eb+104(FP), X0 // entry = xB * TBM
	XORPD X1, X1          // pm: the previous row at node k-1
	XORPD X2, X2          // pi
	XORPD X3, X3          // pd
	XORPD X4, X4          // cm: this row at node k-1
	XORPD X5, X5          // cd
	XORPD X6, X6          // xE
	DECQ  CX              // M
	JLE   done
	ADDQ  $48, DI
	ADDQ  $8, SI
	ADDQ  $8, DX

node:
	// mv = (pm*MM + pi*IM + pd*DM + entry) * msc[k]
	BCAST(MM, X7)
	MULPD X1, X7
	BCAST(IM, X8)
	MULPD X2, X8
	ADDPD X8, X7
	BCAST(DM, X8)
	MULPD X3, X8
	ADDPD X8, X7
	ADDPD X0, X7
	MOVSD (SI), X8
	MOVHPD (DX), X8
	MULPD X8, X7

	// dv = cm*MD + cd*DD
	BCAST(MD, X8)
	MULPD X4, X8
	BCAST(DD, X9)
	MULPD X5, X9
	ADDPD X9, X8

	// The old cells are the next node's pm, pi, pd.
	MOVUPD 0(DI), X1
	MOVUPD 16(DI), X2
	MOVUPD 32(DI), X3

	// iv = om*MI + oi*II, through node k's own transitions
	BCAST(NODE+MI, X9)
	MULPD X1, X9
	BCAST(NODE+II, X10)
	MULPD X2, X10
	ADDPD X10, X9

	MOVUPD X7, 0(DI)
	MOVUPD X9, 16(DI)
	MOVUPD X8, 32(DI)
	ADDPD  X7, X6 // xE += mv
	MOVAPD X7, X4
	MOVAPD X8, X5
	ADDQ   $48, DI
	ADDQ   $NODE, BX
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    node

done:
	ADDPD  X5, X6 // local exit from D_M
	MOVSD  X6, xEa+112(FP)
	MOVHPD X6, xEb+120(FP)
	RET
