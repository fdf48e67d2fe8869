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
	// states pools per-warp register buffers across blocks (the DP
	// rows are re-initialised per sequence, so reuse is safe).
	states sync.Pool
}

// Shared-memory layout per block for the Viterbi kernel:
//
//	[0, warps*6*(M+1))                    per-warp M/I/D int16 row buffers
//	[+, warps*reduceScratchI16)           Fermi reduction scratch
//	[+, 2*24*(M+1) + 14*(M+1))            model tables (MemShared only)
func (r *vitRun) rowBase(warpInBlock int) int {
	return warpInBlock * 6 * (r.prof.VP.M + 1)
}

// Region offsets within a warp's row area (byte offsets; 2 bytes/cell).
func (r *vitRun) mOff(rowBase, k int) int { return rowBase + 2*k }
func (r *vitRun) iOff(rowBase, k int) int { return rowBase + 2*(r.prof.VP.M+1) + 2*k }
func (r *vitRun) dOff(rowBase, k int) int { return rowBase + 4*(r.prof.VP.M+1) + 2*k }

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

// vitWarpState holds a warp's registers: 32 i16 lanes each, as
// lanes/4 SWAR words.
type vitWarpState struct {
	// Previous-row M/I/D at sources p0+l, and the following chunk's,
	// prefetched before the in-place update (Figure 5).
	curM, curI, curD    []uint64
	nextM, nextI, nextD []uint64
	pmT, piT            []uint64 // previous-row M and I at targets p0+1+l
	mv, iv, dv          []uint64 // the new row's cells
	ddCand              []uint64 // Lazy-F D-D candidates
	xEv                 []uint64 // running row maximum per lane
	neg                 []uint64 // NegInf16 in every lane
	tail                []uint64 // the lanes a ragged last chunk keeps (M % lanes)
	red                 []uint64 // reduction partner register
	// rowBuf backs the spilled DP rows (row-in-global variant only):
	// the M, I and D regions laid out exactly as in shared memory, as
	// the same little-endian bytes.
	rowBuf []byte
	// The §VI scan runs on lanes; these are its unpacked operands.
	scanDV, scanWgt []int16
	scan            *ddScanState
}

func newVitWarpState(lanes, m int, spillRows, ddScan bool) *vitWarpState {
	reg := func() []uint64 { return make([]uint64, lanes/lanesPerWordI16) }
	st := &vitWarpState{
		curM: reg(), curI: reg(), curD: reg(),
		nextM: reg(), nextI: reg(), nextD: reg(),
		pmT: reg(), piT: reg(),
		mv: reg(), iv: reg(), dv: reg(),
		ddCand: reg(), xEv: reg(),
		neg: reg(), tail: reg(), red: reg(),
	}
	for j := range st.neg {
		st.neg[j] = satmath.SplatI16(satmath.NegInf16)
	}
	keepLanes(st.tail, m%lanes, lanesPerWordI16)
	if spillRows {
		st.rowBuf = make([]byte, 6*(m+1))
	}
	if ddScan {
		st.scanDV = make([]int16, lanes)
		st.scanWgt = make([]int16, lanes)
		st.scan = newDDScanState(lanes)
	}
	return st
}

// kernel is the warp-synchronous P7Viterbi kernel (Algorithm 2) with
// parallel Lazy-F (Figure 7).
func (r *vitRun) kernel(w *simt.Warp) {
	lanes := w.Lanes()
	regWords := lanes / lanesPerWordI16
	vp := r.prof.VP
	m := vp.M
	neg := satmath.NegInf16
	negInf := satmath.SplatI16(neg)
	rowBase := r.rowBase(w.WarpInBlock)
	scratchBase := r.scratchBase(w)
	st, _ := r.states.Get().(*vitWarpState)
	if st == nil {
		st = newVitWarpState(lanes, m, r.plan.RowsInGlobal, r.ddScan)
	}
	defer r.states.Put(st)
	if r.plan.RowsInGlobal {
		rowBase = 0 // helpers address the warp's private spilled area
	}

	// Model prologue: meter the cooperative global->shared copy when
	// the model lives in shared memory.
	if r.plan.MemConfig == MemShared && w.WarpInBlock == 0 {
		tableBytes := 2*deviceAlphaSize*(m+1) + 14*(m+1)
		for off := 0; off < tableBytes; off += 4 * lanes {
			n := (tableBytes - off + 3) / 4
			if n > lanes {
				n = lanes
			}
			w.GlobalSpanLoad(r.prof.TableAddr+int64(off), 4, n)
		}
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
		for region := 0; region < 3; region++ {
			for k0 := 0; k0 <= m; k0 += lanes {
				r.storeAt(w, st, st.neg, rowBase+region*2*(m+1), k0, m)
			}
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
			w.ALU(2)

			mscRow := r.prof.matUnit[res]
			xBtbm := satmath.SplatI16(satmath.AddI16(xB, vp.TBM))
			copy(st.xEv, st.neg)
			w.ALU(2)

			dChain := neg // D value at the last completed position
			dAtM := neg   // final D(M), folded into E after the row
			rowIters := 0 // parallel lazy-F iterations this row

			// Load the first 32 previous-row dependencies.
			r.loadRow3(w, st, rowBase, 0, m)

			for p0 := 0; p0 < m; p0 += lanes {
				// Double-buffer the warp boundary: prefetch the next 32
				// previous-row cells before any in-place update.
				if p0+lanes < m {
					r.prefetchRow3(w, st, rowBase, p0+lanes, m)
				}

				// Previous-row M and I at the target positions (for the
				// I recurrence) — still unwritten this row.
				r.loadAt(w, st, st.pmT, r.mOff(rowBase, 0), p0+1, m)
				r.loadAt(w, st, st.piT, r.iOff(rowBase, 0), p0+1, m)

				// Model parameter fetches (metered per configuration).
				r.meterModel(w, res, p0, m)

				// This chunk's parameters, and how many lanes are
				// active: lanes past the model in a ragged last chunk
				// are not, which on i16 cells means forced to NegInf16
				// (a zero lane would win comparisons).
				c0 := p0 / lanesPerWordI16
				tmm, tim, tdm := r.prof.tmm[c0:c0+regWords], r.prof.tim[c0:c0+regWords], r.prof.tdm[c0:c0+regWords]
				tmi, tii := r.prof.tmi[c0:c0+regWords], r.prof.tii[c0:c0+regWords]
				tmd, tdd := r.prof.tmd[c0:c0+regWords], r.prof.tdd[c0:c0+regWords]
				msc := mscRow[c0 : c0+regWords]
				active := min(lanes, m-p0)
				ragged := active < lanes

				// temp_m / temp_i (Algorithm 2, lines 15-18).
				for j := 0; j < regWords; j++ {
					mv := satmath.MaxI16x4(
						satmath.MaxI16x4(
							satmath.AddI16x4(st.curM[j], tmm[j]),
							satmath.AddI16x4(st.curI[j], tim[j]),
						),
						satmath.MaxI16x4(
							satmath.AddI16x4(st.curD[j], tdm[j]),
							xBtbm,
						),
					)
					mv = satmath.AddI16x4(mv, msc[j])
					if ragged {
						mv = mv&st.tail[j] | negInf&^st.tail[j]
					}
					st.mv[j] = mv
					st.iv[j] = satmath.MaxI16x4(
						satmath.AddI16x4(st.pmT[j], tmi[j]),
						satmath.AddI16x4(st.piT[j], tii[j]),
					)
					st.xEv[j] = satmath.MaxI16x4(st.xEv[j], mv)
				}
				w.ALU(10)

				// Store M and I (line 20).
				r.storeAt(w, st, st.mv, r.mOff(rowBase, 0), p0+1, m)
				r.storeAt(w, st, st.iv, r.iOff(rowBase, 0), p0+1, m)

				// D partial value: M-D path only (line 17). The new M at
				// t-1 is read back through shared memory — lane 0 picks
				// up the previous chunk's boundary cell.
				r.loadAt(w, st, st.pmT, r.mOff(rowBase, 0), p0, m)
				for j := 0; j < regWords; j++ {
					st.dv[j] = satmath.AddI16x4(st.pmT[j], tmd[j])
				}
				// Cross-chunk D-D link into lane 0.
				setLaneI16(st.dv, 0, satmath.MaxI16(laneI16(st.dv, 0),
					satmath.AddI16(dChain, vp.TDD[p0])))
				w.ALU(3)

				if r.ddScan {
					// §VI extension: resolve every intra-chunk D-D
					// chain with a 5-round weighted max-plus prefix
					// scan over shuffles, then store once. The scan
					// works lane by lane: unpack its operands (the
					// packed D-D weights already hold NegInf16 past
					// the model) and repack its result.
					for l := 0; l < lanes; l++ {
						st.scanDV[l] = laneI16(st.dv, l)
						st.scanWgt[l] = laneI16(tdd, l)
					}
					ddScanResolve(w, st.scan, st.scanDV, st.scanWgt, active)
					for l := 0; l < lanes; l++ {
						setLaneI16(st.dv, l, st.scanDV[l])
					}
					r.storeAt(w, st, st.dv, r.dOff(rowBase, 0), p0+1, m)
				} else {
					r.storeAt(w, st, st.dv, r.dOff(rowBase, 0), p0+1, m)

					// Parallel Lazy-F (Figure 7): iterate until the
					// warp vote confirms every position holds its
					// highest D. (The eager ablation runs the full
					// worst-case loop unconditionally — the cost the
					// lazy design avoids.)
					for iter := 0; iter < lanes; iter++ {
						r.loadAt(w, st, st.ddCand, r.dOff(rowBase, 0), p0, m)
						// The vote predicate folds into a host flag in
						// the same pass that computes the candidates.
						settled := true
						for j := 0; j < regWords; j++ {
							cand := satmath.AddI16x4(st.ddCand[j], tdd[j])
							if ragged {
								cand = cand&st.tail[j] | negInf&^st.tail[j]
							}
							st.ddCand[j] = cand
							if satmath.AnyGtI16x4(cand, st.dv[j]) {
								settled = false
							}
						}
						w.ALU(3)
						if !r.eager {
							w.Vote()
							if settled {
								break
							}
						}
						rowIters++
						for j := 0; j < regWords; j++ {
							st.dv[j] = satmath.MaxI16x4(st.dv[j], st.ddCand[j])
						}
						w.ALU(1)
						r.storeAt(w, st, st.dv, r.dOff(rowBase, 0), p0+1, m)
					}
				}

				// Carry the chunk boundary D value and remember D(M).
				dChain = laneI16(st.dv, active-1)
				if p0+active == m {
					dAtM = dChain
				}
				w.ALU(2)

				st.curM, st.nextM = st.nextM, st.curM
				st.curI, st.nextI = st.nextI, st.curI
				st.curD, st.nextD = st.nextD, st.curD
			}

			if rowIters > 0 {
				lazyRows++
				lazyIters += int64(rowIters)
			}

			// Row maximum (line 22) plus the D_M local exit, then the
			// specials (line 24).
			xE := warpMaxI16(w, st.xEv, st.red, scratchBase)
			xE = satmath.MaxI16(xE, dAtM)
			xJ = satmath.MaxI16(xJ, satmath.AddI16(xE, vp.TEJ))
			xC = satmath.MaxI16(xC, satmath.AddI16(xE, vp.TEC))
			xB = satmath.AddI16(satmath.MaxI16(0, xJ), vp.TMove)
			w.ALU(5)
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

// loadRow3 fills curM/curI/curD with previous-row values at positions
// p0+l.
func (r *vitRun) loadRow3(w *simt.Warp, st *vitWarpState, rowBase, p0, m int) {
	r.loadAt(w, st, st.curM, r.mOff(rowBase, 0), p0, m)
	r.loadAt(w, st, st.curI, r.iOff(rowBase, 0), p0, m)
	r.loadAt(w, st, st.curD, r.dOff(rowBase, 0), p0, m)
}

// prefetchRow3 fills nextM/nextI/nextD with previous-row values at
// positions p0+l.
func (r *vitRun) prefetchRow3(w *simt.Warp, st *vitWarpState, rowBase, p0, m int) {
	r.loadAt(w, st, st.nextM, r.mOff(rowBase, 0), p0, m)
	r.loadAt(w, st, st.nextI, r.iOff(rowBase, 0), p0, m)
	r.loadAt(w, st, st.nextD, r.dOff(rowBase, 0), p0, m)
}

// loadAt loads the i16 cells at positions p0+l (consecutive cells: a
// conflict-free span) from a row region whose position-0 byte offset
// is base0 (warp-relative when rows are spilled to global memory);
// lanes past the row load as zero.
func (r *vitRun) loadAt(w *simt.Warp, st *vitWarpState, dst []uint64, base0, p0, m int) {
	n := m + 1 - p0
	if lanes := w.Lanes(); n > lanes {
		n = lanes
	}
	off0 := base0 + 2*p0
	if r.plan.RowsInGlobal {
		warpBase := r.rowAddr + int64(w.GlobalWarpID())*int64(6*(m+1))
		w.GlobalSpanLoadCached(warpBase+int64(off0), 2, n)
		satmath.PackLanes(dst, st.rowBuf[off0:off0+2*n])
		return
	}
	w.SharedSpanLoadWords(dst, off0, n, 2)
}

// storeAt stores the first lanes of vals to positions p0+l.
func (r *vitRun) storeAt(w *simt.Warp, st *vitWarpState, vals []uint64, base0, p0, m int) {
	n := m + 1 - p0
	if lanes := w.Lanes(); n > lanes {
		n = lanes
	}
	off0 := base0 + 2*p0
	if r.plan.RowsInGlobal {
		warpBase := r.rowAddr + int64(w.GlobalWarpID())*int64(6*(m+1))
		w.GlobalSpanStoreCached(warpBase+int64(off0), 2, n)
		satmath.UnpackLanes(st.rowBuf[off0:off0+2*n], vals)
		return
	}
	w.SharedSpanStoreWords(vals, off0, n, 2)
}

// meterModel accounts the emission and transition parameter fetches
// for one chunk (the values themselves come from the tables
// UploadVitProfile packed).
func (r *vitRun) meterModel(w *simt.Warp, res byte, p0, m int) {
	n := m - p0
	if lanes := w.Lanes(); n > lanes {
		n = lanes
	}
	if r.plan.MemConfig == MemShared {
		mb := r.modelBase(w.HasShuffle())
		// Emission row + 7 transition arrays: 8 shared gathers of
		// consecutive 16-bit cells (conflict-free).
		for arr := 0; arr < 8; arr++ {
			var b int
			if arr == 0 {
				b = mb + int(res)*2*(m+1)
			} else {
				b = mb + 2*deviceAlphaSize*(m+1) + (arr-1)*2*(m+1)
			}
			w.SharedSpanTouch(b+2*p0, 2, n, false)
		}
		return
	}
	for arr := 0; arr < 8; arr++ {
		var b int64
		if arr == 0 {
			b = r.prof.TableAddr + int64(int(res)*2*(m+1))
		} else {
			b = r.prof.TransAddr + int64((arr-1)*2*(m+1))
		}
		w.GlobalSpanLoadCached(b+int64(2*p0), 2, n)
	}
}
