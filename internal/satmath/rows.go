package satmath

// Row primitives: each filter recurrence over a whole row of SWAR
// words, the loop the striped CPU engines (internal/cpu) and the
// simulated kernels (internal/gpu) both run, so host and device share
// one implementation of each. On amd64 they are SSE2 (rows_amd64.s),
// two words to a 128-bit register; elsewhere they are the generic
// loops below over the single-word ops of swar.go. The generic loops
// are always compiled: the tests hold the SSE2 code to them word for
// word.
//
// Every slice a row primitive takes (MSVFilterU8 has its own shapes)
// must have the same length; a mismatch is a caller bug and panics
// before any assembly runs, so no loop reads or writes past a slice.
// An output may be one of the inputs at the same index (an update in
// place), and DDRoundI16's src may be d itself two or more words
// behind; no other overlap is allowed. The SSE2 code loads two words
// at a time, so an output one word ahead of its input would read a
// word the generic loop has already replaced.

const rowLenPanic = "satmath: row slices differ in length"

// MSVRowU8 runs MSVStepU8x8 over a biased MSV row: dst[j] =
// MSVStepU8x8(src[j], xB, cost[j]) + bias, the bias added as one
// 64-bit word add (PADDQ on amd64, never a lane add) so a row driven
// past OverflowThreshold stores exactly what the single-word step
// would. It returns the lane-wise maximum of the unbiased steps, zero
// for an empty row.
func MSVRowU8(dst, src, cost []uint64, xB, bias uint64) (xE uint64) {
	if len(src) != len(dst) || len(cost) != len(dst) {
		panic(rowLenPanic)
	}
	return msvRow(dst, src, cost, xB, bias)
}

func msvRowGeneric(dst, src, cost []uint64, xB, bias uint64) (xE uint64) {
	src, cost = src[:len(dst)], cost[:len(dst)]
	for j := range dst {
		sv := MSVStepU8x8(src[j], xB, cost[j])
		xE = MaxU8x8(xE, sv)
		dst[j] = sv + bias
	}
	return xE
}

// MSVParams are a profile.MSVProfile's byte constants, its xJ floor
// (MSVBase) and the row maximum it overflows at (OverflowThreshold).
type MSVParams struct {
	Bias, TBM, TEC, TJB, Base, Overflow uint8
}

const msvRowsPanic, residuePanic = "satmath: MSV rows are not two wrap words and whole stripes", "satmath: residue code past the cost table"

// MSVFilterU8 runs the striped MSV filter over dsq in one call, as
// HMMER's p7_MSVFilter is one loop. Per residue r: the diagonal wrap
// (the last stripe up one lane, Bias in lane 0), MSVRowU8 over
// cost[r*n:(r+1)*n] with xBv = splat(max(Base, xJ) - TJB - TBM + Bias),
// the exit once the row's largest lane xE reaches Overflow, and xJ =
// max(xJ, xE - TEC). prev (holding the first row) and cur are two wrap
// words then n row words, n even. A code whose row ends past cost
// panics before that row is read.
func MSVFilterU8(prev, cur, cost []uint64, dsq []byte, p MSVParams) (xJ uint8, overflowed bool) {
	if n := len(prev) - 2; len(cur) != len(prev) || n < 2 || n%2 != 0 {
		panic(msvRowsPanic)
	}
	xJ, overflowed, at := msvFilter(prev, cur, cost, dsq, p)
	if !overflowed && at < len(dsq) {
		panic(residuePanic)
	}
	return xJ, overflowed
}

// msvFilterGeneric is MSVFilterU8's loop; at is the residue it stopped
// on (an overflow, or a code past the table), or len(dsq).
func msvFilterGeneric(prev, cur, cost []uint64, dsq []byte, p MSVParams) (xJ uint8, overflowed bool, at int) {
	n := len(prev) - 2
	biasv := SplatU8(p.Bias)
	for i, r := range dsq {
		lo := int(r) * n
		if lo+n > len(cost) {
			return xJ, false, i
		}
		xBv := SplatU8(AddU8(SubU8(SubU8(MaxU8(p.Base, xJ), p.TJB), p.TBM), p.Bias))
		prev[0], prev[1] = prev[n]<<8|uint64(p.Bias), prev[n+1]<<8|prev[n]>>56
		xE := HMaxU8x8(msvRowGeneric(cur[2:], prev[:n], cost[lo:lo+n], xBv, biasv))
		prev, cur = cur, prev
		if xE >= p.Overflow {
			return xJ, true, i
		}
		xJ = MaxU8(xJ, SubU8(xE, p.TEC))
	}
	return xJ, false, len(dsq)
}

// VitMI names the rows of one Viterbi M/I update (Algorithm 2, lines
// 15-18; HMMER's ViterbiFilter inner loop), all of one length. For
// each word j:
//
//	M[j] = max(SrcM[j]+TMM[j], SrcI[j]+TIM[j], SrcD[j]+TDM[j], xB) + Emit[j]
//	I[j] = max(PrevM[j]+TMI[j], PrevI[j]+TII[j])
//
// with every + saturating (AddI16x4). The Src rows hold the previous
// DP row at each cell's predecessor k-1, the Prev rows at the cell k
// itself. M and I must not overlap any input.
type VitMI struct {
	M, I             []uint64
	SrcM, SrcI, SrcD []uint64
	PrevM, PrevI     []uint64
	TMM, TIM, TDM    []uint64
	TMI, TII         []uint64
	Emit             []uint64
}

// VitMIRowI16 runs the M/I update r names and returns the lane-wise
// maximum of the new M cells, NegInf16 in every lane for an empty row.
func VitMIRowI16(r *VitMI, xB uint64) (xE uint64) {
	n := len(r.M)
	if len(r.I) != n || len(r.SrcM) != n || len(r.SrcI) != n || len(r.SrcD) != n ||
		len(r.PrevM) != n || len(r.PrevI) != n || len(r.TMM) != n || len(r.TIM) != n ||
		len(r.TDM) != n || len(r.TMI) != n || len(r.TII) != n || len(r.Emit) != n {
		panic(rowLenPanic)
	}
	return vitMIRow(r, xB)
}

func vitMIRowGeneric(r *VitMI, xB uint64) (xE uint64) {
	n := len(r.M)
	srcM, srcI, srcD := r.SrcM[:n], r.SrcI[:n], r.SrcD[:n]
	prevM, prevI := r.PrevM[:n], r.PrevI[:n]
	tMM, tIM, tDM, tMI, tII := r.TMM[:n], r.TIM[:n], r.TDM[:n], r.TMI[:n], r.TII[:n]
	emit, iOut := r.Emit[:n], r.I[:n]
	xE = SplatI16(NegInf16)
	for j := range r.M {
		v := MaxI16x4(
			MaxI16x4(AddI16x4(srcM[j], tMM[j]), AddI16x4(srcI[j], tIM[j])),
			MaxI16x4(AddI16x4(srcD[j], tDM[j]), xB),
		)
		v = AddI16x4(v, emit[j])
		xE = MaxI16x4(xE, v)
		r.M[j] = v
		iOut[j] = MaxI16x4(AddI16x4(prevM[j], tMI[j]), AddI16x4(prevI[j], tII[j]))
	}
	return xE
}

// AddRowI16 stores dst[j] = AddI16x4(a[j], b[j]): the Viterbi D seeds,
// each new M cell plus its M->D transition.
func AddRowI16(dst, a, b []uint64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(rowLenPanic)
	}
	addRow(dst, a, b)
}

func addRowGeneric(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for j := range dst {
		dst[j] = AddI16x4(a[j], b[j])
	}
}

// DDRoundI16 is one round of the D-D chain: d[j] = MaxI16x4(d[j],
// AddI16x4(src[j], w[j])), reporting whether any lane of d rose. It is
// the device's parallel Lazy-F round (src the row's D read back one
// cell behind), and, because words are produced in order, two at a
// time, the striped engine's serial chain too: with src the same array
// as d two or more words behind it, word j reads the value word j-2
// (or earlier) has just stored, Farrar's stripe-to-stripe carry.
func DDRoundI16(d, src, w []uint64) (changed bool) {
	if len(src) != len(d) || len(w) != len(d) {
		panic(rowLenPanic)
	}
	return ddRound(d, src, w)
}

func ddRoundGeneric(d, src, w []uint64) (changed bool) {
	src, w = src[:len(d)], w[:len(d)]
	for j := range d {
		v := d[j]
		nv := MaxI16x4(v, AddI16x4(src[j], w[j]))
		changed = changed || nv != v
		d[j] = nv
	}
	return changed
}
