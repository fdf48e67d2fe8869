package gpu

import (
	"math"
	"sync"
	"sync/atomic"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/simt"
)

// vitRun carries one P7Viterbi launch's state.
type vitRun struct {
	db     *DeviceDB
	prof   *DeviceVitProfile
	plan   LaunchPlan
	eager  bool // lazyf ablation: always run the full D-D update loop
	ddScan bool // §VI extension: prefix-scan D-D resolution (Kepler)
	// rowAddr is the logical global base of the spilled per-warp row
	// buffers when plan.RowsInGlobal is set.
	rowAddr int64
	out     []cpu.FilterResult
	// lazyRows / lazyIters count rows needing >= 1 parallel lazy-F
	// iteration and the total iterations; every warp adds its share
	// as it retires (read by the ablation benchmark).
	lazyRows, lazyIters atomic.Int64
}

// Shared-memory layout per block for the Viterbi kernel:
//
//	[0, warps*6*(M+1))                    per-warp M/I/D int16 row buffers
//	[+, warps*reduceScratchI16)           Fermi reduction scratch
//	[+, 2*24*(M+1) + 14*(M+1))            model tables (MemShared only)
func (r *vitRun) rowBase(warpInBlock int) int {
	return warpInBlock * 6 * (r.prof.VP.M + 1)
}

func (r *vitRun) scratchBase(w *simt.Warp) int {
	if r.plan.RowsInGlobal {
		return w.WarpInBlock * reduceScratchI16
	}
	base := r.plan.WarpsPerBlock * 6 * (r.prof.VP.M + 1)
	return base + w.WarpInBlock*reduceScratchI16
}

func (r *vitRun) modelBase(hasShuffle bool) int {
	base := r.plan.WarpsPerBlock * 6 * (r.prof.VP.M + 1)
	if !hasShuffle {
		base += r.plan.WarpsPerBlock * reduceScratchI16
	}
	return base
}

// vitWarpState holds a warp's registers as whole DP rows of i16
// cells, four lanes to a SWAR word, lane k in word k/4, each row as
// many whole chunks as hold cells 0..M.
type vitWarpState struct {
	// The previous row's M, I and D at sources k, and its M and I at
	// targets k+1 (the latter reused for the new M read back at k).
	prevM, prevI, prevD []uint64
	prevMT, prevIT      []uint64
	mv, iv, dv          []uint64 // the new row's cells at targets k+1
	ddCand              []uint64 // one chunk's D(p0..) for a Lazy-F round
	tail                []uint64 // the lanes a ragged last chunk keeps (M % lanes)
	xEv                 []uint64 // each lane's row maximum, for the Fermi scratch rounds
	red                 []uint64 // their partner register
	// rowBuf backs the spilled DP rows (row-in-global variant only):
	// the M, I and D regions laid out exactly as in shared memory, as
	// the same little-endian bytes.
	rowBuf []byte
	// The §VI scan runs on lanes; these are its unpacked operands.
	scanDV, scanWgt []int16
	scan            *ddScanState
}

// vitStates pools warp register files across every launch and block,
// as msvStates does.
var vitStates sync.Pool

// getVitState takes a register file from the pool, sized for a model
// of size m on warps of the given width, with the spilled rows and the
// scan operands when the launch uses them.
func getVitState(lanes, m int, spillRows, ddScan bool) *vitWarpState {
	st, _ := vitStates.Get().(*vitWarpState)
	if st == nil {
		st = new(vitWarpState)
	}
	regWords := lanes / lanesPerWordI16
	rowWords := (m/lanes + 1) * regWords
	for _, reg := range []*[]uint64{&st.prevM, &st.prevI, &st.prevD, &st.prevMT, &st.prevIT, &st.mv, &st.iv, &st.dv} {
		*reg = words(*reg, rowWords)
	}
	for _, reg := range []*[]uint64{&st.ddCand, &st.tail, &st.xEv, &st.red} {
		*reg = words(*reg, regWords)
	}
	keepLanes(st.tail, m%lanes, lanesPerWordI16)
	if spillRows && len(st.rowBuf) != 6*(m+1) {
		st.rowBuf = make([]byte, 6*(m+1))
	}
	if ddScan && len(st.scanDV) != lanes {
		st.scanDV = make([]int16, lanes)
		st.scanWgt = make([]int16, lanes)
		st.scan = newDDScanState(lanes)
	}
	return st
}

// kernel is the warp-synchronous P7Viterbi kernel (Algorithm 2) with
// parallel Lazy-F (Figure 7), run a DP row at a time: each row region
// moves through shared memory (or the spilled rows) in one span,
// charged as the 32-cell chunks of Algorithm 2; the D-D chain and the
// Lazy-F rounds run chunk by chunk, as Algorithm 2 issues them (see
// reduce.go).
func (r *vitRun) kernel(w *simt.Warp) {
	lanes := w.Lanes()
	regWords := lanes / lanesPerWordI16
	vp := r.prof.VP
	m := vp.M
	chunks := (m + lanes - 1) / lanes
	// Each chunk reads its 32 sources; the last one's stop at cell m.
	srcCells := min(m+1, chunks*lanes)
	// The words holding the M targets: full ones, then a ragged last
	// one when m is not a whole number of words, and the lanes of that
	// one inside the model.
	full, nw := m/lanesPerWordI16, (m+lanesPerWordI16-1)/lanesPerWordI16
	tailKeep := keepWord(m, lanesPerWordI16)
	neg := satmath.NegInf16
	negInf := satmath.SplatI16(neg)
	rowBase := r.rowBase(w.WarpInBlock)
	scratchBase := r.scratchBase(w)
	st := getVitState(lanes, m, r.plan.RowsInGlobal, r.ddScan)
	defer vitStates.Put(st)
	if r.plan.RowsInGlobal {
		rowBase = 0 // helpers address the warp's private spilled area
	}
	mOff := func(k int) int { return rowBase + 2*k }
	iOff := func(k int) int { return rowBase + 2*(m+1) + 2*k }
	dOff := func(k int) int { return rowBase + 4*(m+1) + 2*k }

	// A row's fixed work: decode and row set-up; per chunk lines 15-18
	// (10), 17 (3), the boundary carry (2) and the Lazy-F round that
	// confirms no change (3); the specials; a folded reduction; and, in
	// an exact block, the 8 shared model-table touches.
	alu := 4 + 15*chunks + 5
	if !r.ddScan && !r.eager {
		alu += 3 * chunks
	}
	row := w.NewCharge()
	row.ALU(alu)
	folds := chargeReduction(&row, w)
	exact := w.SharedExact()
	if r.plan.MemConfig == MemShared && exact {
		for range 8 {
			row.SharedSpan(m, false)
		}
	}

	// Model prologue: meter the cooperative global->shared copy when
	// the model lives in shared memory.
	if r.plan.MemConfig == MemShared && w.WarpInBlock == 0 {
		tableBytes := 2*deviceAlphaSize*(m+1) + 14*(m+1)
		w.GlobalSpanLoad(r.prof.TableAddr, 4, (tableBytes+3)/4)
	}

	nSeqs := len(r.db.Packed)
	span := w.TotalWarps()
	var lazyRows, lazyIters int64

	for seqID := w.GlobalWarpID(); seqID < nSeqs; seqID += span {
		words := r.db.Packed[seqID]
		seqAddr := r.db.Addr[seqID]
		seqLen := r.db.Lens[seqID]
		w.ALU(4)

		// Initialise all three row buffers to -infinity.
		for j := range st.mv {
			st.mv[j] = negInf
		}
		for region := 0; region < 3; region++ {
			r.store(w, st, st.mv, mOff(region*(m+1)), m+1)
		}

		xJ, xC := neg, neg
		xB := vp.TMove

		for i := 0; i < seqLen; i++ {
			if i%alphabet.ResiduesPerWord == 0 {
				w.GlobalBroadcastLoad(packedWordAddr(seqAddr, i/alphabet.ResiduesPerWord), 4)
			}
			res := alphabet.PackedAt(words, i)
			if res == alphabet.PackSentinel {
				break
			}

			// The previous row at every source the chunks read, and its
			// M and I at every target — all loaded before the row is
			// written: the double buffer's loads, charged chunk by chunk.
			r.load(w, st, st.prevM, mOff(0), srcCells)
			r.load(w, st, st.prevI, iOff(0), srcCells)
			r.load(w, st, st.prevD, dOff(0), srcCells)
			r.load(w, st, st.prevMT, mOff(1), m)
			r.load(w, st, st.prevIT, iOff(1), m)
			r.meterModel(w, res, exact)

			// temp_m / temp_i (Algorithm 2, lines 15-18).
			xBtbm := satmath.SplatI16(satmath.AddI16(xB, vp.TBM))
			mi := r.miRows(st, res, 0, full)
			xEv := satmath.VitMIRowI16(&mi, xBtbm)
			if full < nw {
				// Lanes past the model in the ragged last word are
				// inactive, which on i16 cells means forced to NegInf16
				// (a zero lane would win the row maximum, folded as the
				// words are).
				mi = r.miRows(st, res, full, nw)
				satmath.VitMIRowI16(&mi, xBtbm)
				st.mv[full] = st.mv[full]&tailKeep | negInf&^tailKeep
				xEv = satmath.MaxI16x4(xEv, st.mv[full])
			}

			// Store M and I (line 20).
			r.store(w, st, st.mv, mOff(1), m)
			r.store(w, st, st.iv, iOff(1), m)

			// D partial value: M-D path only (line 17). The new M at
			// t-1 is read back through shared memory — each chunk's
			// lane 0 picks up the previous chunk's boundary cell.
			r.load(w, st, st.prevMT, mOff(0), srcCells)
			dv := st.dv[:chunks*regWords]
			satmath.AddRowI16(dv, st.prevMT[:len(dv)], r.prof.tmd[:len(dv)])

			// The D-D chain, chunk by chunk: the cross-chunk link into
			// lane 0, then the §VI scan or the parallel Lazy-F.
			dChain := neg // D value at the last completed position
			dAtM := neg   // final D(M), folded into E after the row
			rowIters := 0 // parallel lazy-F iterations this row
			for c, p0 := 0, 0; p0 < m; c, p0 = c+1, p0+lanes {
				dv := dv[c*regWords : (c+1)*regWords]
				tdd := r.prof.tdd[c*regWords : (c+1)*regWords]
				active := min(lanes, m-p0)
				setLaneI16(dv, 0, satmath.MaxI16(laneI16(dv, 0),
					satmath.AddI16(dChain, vp.TDD[p0])))
				if r.ddScan {
					// §VI extension: resolve every intra-chunk D-D
					// chain with a 5-round weighted max-plus prefix
					// scan over shuffles. The scan works lane by lane:
					// unpack its operands (the packed D-D weights
					// already hold NegInf16 past the model) and repack
					// its result.
					for l := 0; l < lanes; l++ {
						st.scanDV[l] = laneI16(dv, l)
						st.scanWgt[l] = laneI16(tdd, l)
					}
					ddScanResolve(w, st.scan, st.scanDV, st.scanWgt, active)
					for l := 0; l < lanes; l++ {
						setLaneI16(dv, l, st.scanDV[l])
					}
				} else {
					rowIters += r.lazyF(w, st, dv, tdd, dOff(p0), active)
				}
				// Carry the chunk boundary D value and remember D(M).
				dChain = laneI16(dv, active-1)
				if p0+active == m {
					dAtM = dChain
				}
			}
			if r.ddScan {
				// The scanned row's D, one store per chunk (Lazy-F
				// stores its own).
				r.store(w, st, st.dv, dOff(1), m)
			}

			if rowIters > 0 {
				// Every Lazy-F round that stores D: 4 instructions.
				w.ALU(4 * rowIters)
				lazyRows++
				lazyIters += int64(rowIters)
			}

			// Row maximum (line 22) plus the D_M local exit, then the
			// specials (line 24).
			xE := satmath.HMaxI16x4(xEv)
			if !folds {
				xE = scratchMaxI16(w, st.mv[:nw], st.xEv, st.red, scratchBase)
			}
			xE = satmath.MaxI16(xE, dAtM)
			xJ = satmath.MaxI16(xJ, satmath.AddI16(xE, vp.TEJ))
			xC = satmath.MaxI16(xC, satmath.AddI16(xE, vp.TEC))
			xB = satmath.AddI16(satmath.MaxI16(0, xJ), vp.TMove)
			w.Apply(&row)
		}

		if profile.Overflowed(xC) {
			r.out[seqID] = cpu.FilterResult{Score: math.Inf(1), Overflowed: true}
		} else {
			r.out[seqID] = cpu.FilterResult{Score: vp.ScoreToNats(xC)}
		}
		w.GlobalSpanStore(r.db.ScoreAddr+int64(8*seqID), 8, 1)
	}

	r.lazyRows.Add(lazyRows)
	r.lazyIters.Add(lazyIters)
}

// lazyF resolves one chunk's D-D chain with the parallel Lazy-F
// (Figure 7). d holds the chunk's M-D seeds (lane l is D(p0+1+l)) and
// at is D(p0)'s row offset. It stores the seeds; each round reads
// D(p0..) back, adds the D-D costs and lets every position take its
// predecessor's candidate until the warp vote confirms none improves
// (the eager ablation runs the full worst-case loop unconditionally —
// the cost the lazy design avoids), storing D after every round that
// changed it. It returns those rounds; their ALU instructions, and the
// confirming round's, are the caller's to charge.
func (r *vitRun) lazyF(w *simt.Warp, st *vitWarpState, d, tdd []uint64, at, active int) (iters int) {
	lanes := w.Lanes()
	n := min(lanes, active+1) // cells a round reads: D(p0) and the chunk's
	negInf := satmath.SplatI16(satmath.NegInf16)
	cand := st.ddCand
	// The words whose lanes are all active, then a ragged one; words
	// past it have no active lane, and a round leaves them as they are.
	full := active / lanesPerWordI16
	r.store(w, st, d, at+2, active)
	for iter := 0; iter < lanes; iter++ {
		r.load(w, st, cand, at, n)
		// Each position takes its predecessor's candidate where it is
		// higher; the vote predicate — nothing changed — folds into a
		// host flag in the same pass.
		changed := satmath.DDRoundI16(d[:full], cand[:full], tdd[:full])
		if active%lanesPerWordI16 != 0 {
			c := satmath.AddI16x4(cand[full], tdd[full])
			c = c&st.tail[full] | negInf&^st.tail[full]
			nv := satmath.MaxI16x4(d[full], c)
			changed = changed || nv != d[full]
			d[full] = nv
		}
		if !r.eager {
			w.Vote()
			if !changed {
				break
			}
		}
		iters++
		r.store(w, st, d, at+2, active)
	}
	return iters
}

// miRows names the M/I update's rows over register words [lo, hi)
// for residue res: the previous row at sources k and targets k+1 as
// loaded, the new M and I, and the packed tables.
func (r *vitRun) miRows(st *vitWarpState, res byte, lo, hi int) satmath.VitMI {
	p := r.prof
	return satmath.VitMI{
		M: st.mv[lo:hi], I: st.iv[lo:hi],
		SrcM: st.prevM[lo:hi], SrcI: st.prevI[lo:hi], SrcD: st.prevD[lo:hi],
		PrevM: st.prevMT[lo:hi], PrevI: st.prevIT[lo:hi],
		TMM: p.tmm[lo:hi], TIM: p.tim[lo:hi], TDM: p.tdm[lo:hi],
		TMI: p.tmi[lo:hi], TII: p.tii[lo:hi], Emit: p.matUnit[res][lo:hi],
	}
}

// The row helpers address a warp's row area by byte offset (position
// 0 of the M region at rowBase, or at 0 in the warp's spilled area);
// cells may span several chunks.

// load reads the i16 cells at [off, off+2*cells) into dst (consecutive
// cells: conflict-free spans); lanes past them load as zero.
func (r *vitRun) load(w *simt.Warp, st *vitWarpState, dst []uint64, off, cells int) {
	if r.plan.RowsInGlobal {
		w.GlobalSpanLoadCached(r.spillBase(w)+int64(off), 2, cells)
		satmath.PackLanes(dst, st.rowBuf[off:off+2*cells])
		return
	}
	w.SharedSpanLoadWords(dst, off, cells, 2)
}

// store writes the first cells lanes of vals to [off, off+2*cells).
func (r *vitRun) store(w *simt.Warp, st *vitWarpState, vals []uint64, off, cells int) {
	if r.plan.RowsInGlobal {
		w.GlobalSpanStoreCached(r.spillBase(w)+int64(off), 2, cells)
		satmath.UnpackLanes(st.rowBuf[off:off+2*cells], vals)
		return
	}
	w.SharedSpanStoreWords(vals, off, cells, 2)
}

// spillBase is the logical global address of the warp's spilled rows.
func (r *vitRun) spillBase(w *simt.Warp) int64 {
	return r.rowAddr + int64(w.GlobalWarpID())*int64(6*(r.prof.VP.M+1))
}

// meterModel accounts one row's emission and transition parameter
// fetches (the values come from the tables UploadVitProfile packed);
// shared ones are touches, issued only in inexact blocks (race notes).
func (r *vitRun) meterModel(w *simt.Warp, res byte, exact bool) {
	m := r.prof.VP.M
	if r.plan.MemConfig == MemShared {
		if !exact {
			mb := r.modelBase(w.HasShuffle())
			w.SharedSpanTouch(mb+int(res)*2*(m+1), 2, m, false)
			for arr := 1; arr < 8; arr++ {
				w.SharedSpanTouch(mb+2*deviceAlphaSize*(m+1)+(arr-1)*2*(m+1), 2, m, false)
			}
		}
		return
	}
	w.GlobalSpanLoadCached(r.prof.TableAddr+int64(int(res)*2*(m+1)), 2, m)
	for arr := 1; arr < 8; arr++ {
		w.GlobalSpanLoadCached(r.prof.TransAddr+int64((arr-1)*2*(m+1)), 2, m)
	}
}
