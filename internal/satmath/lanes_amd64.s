#include "textflag.h"

// The lane moves are plain copies: amd64 is little-endian, so lane l
// of a SWAR row is byte l of its words' memory. Each moves 64 bytes at
// a time in four registers, then 16 bytes at a time (MOVOU: neither
// side is 16-byte aligned in general), then one 8-byte word, then the
// last n%8 bytes as a 4-, a 2- and a 1-byte piece, and never touches a
// byte past either slice. Four loads in flight before the first store
// matter here: the simulated kernels read back spans they have just
// stored one byte over, which the stores cannot forward.

// func packLanes(dst []uint64, src []byte)
//
// The last piece gathers the ragged bytes into a register that starts
// at zero, so one word store both copies them and zeroes the rest of
// their word; the words after it are zeroed whole.
TEXT ·packLanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R8
	SHLQ $3, DX
	SUBQ R8, DX // bytes of dst past src, to zero
	MOVQ R8, BX
	SHRQ $6, BX
	JZ pack16

pack64:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ pack64

pack16:
	MOVQ R8, BX
	SHRQ $4, BX
	ANDQ $3, BX
	JZ packword

packvec:
	MOVOU (SI), X0
	MOVOU X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ BX
	JNZ packvec

packword:
	TESTQ $8, R8
	JZ packtail
	MOVQ (SI), AX
	MOVQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI

packtail:
	ANDQ $7, R8
	JZ packzero
	ADDQ R8, DX
	SUBQ $8, DX // the tail's word is stored whole
	XORQ AX, AX
	XORQ CX, CX // bit position of the next piece
	TESTQ $4, R8
	JZ pack2
	MOVL (SI), AX
	ADDQ $4, SI
	MOVQ $32, CX

pack2:
	TESTQ $2, R8
	JZ pack1
	MOVWQZX (SI), BX
	SHLQ CX, BX
	ORQ BX, AX
	ADDQ $2, SI
	ADDQ $16, CX

pack1:
	TESTQ $1, R8
	JZ packstore
	MOVBQZX (SI), BX
	SHLQ CX, BX
	ORQ BX, AX

packstore:
	MOVQ AX, (DI)
	ADDQ $8, DI

packzero:
	SHRQ $3, DX
	JZ packdone
	XORQ AX, AX

packzeroword:
	MOVQ AX, (DI)
	ADDQ $8, DI
	DECQ DX
	JNZ packzeroword

packdone:
	RET

// func unpackLanes(dst []byte, src []uint64)
//
// The ragged bytes are the low bytes of src's next word, which is whole.
TEXT ·unpackLanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ src_base+24(FP), SI
	MOVQ R8, BX
	SHRQ $6, BX
	JZ unpack16

unpack64:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ unpack64

unpack16:
	MOVQ R8, BX
	SHRQ $4, BX
	ANDQ $3, BX
	JZ unpackword

unpackvec:
	MOVOU (SI), X0
	MOVOU X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ BX
	JNZ unpackvec

unpackword:
	TESTQ $8, R8
	JZ unpacktail
	MOVQ (SI), AX
	MOVQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI

unpacktail:
	TESTQ $7, R8
	JZ unpackdone
	MOVQ (SI), AX
	TESTQ $4, R8
	JZ unpack2
	MOVL AX, (DI)
	SHRQ $32, AX
	ADDQ $4, DI

unpack2:
	TESTQ $2, R8
	JZ unpack1
	MOVW AX, (DI)
	SHRQ $16, AX
	ADDQ $2, DI

unpack1:
	TESTQ $1, R8
	JZ unpackdone
	MOVB AX, (DI)

unpackdone:
	RET
