package gpu

import (
	"math"
	"sync"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/simt"
)

// msvRun carries one MSV launch's state. Results are written at each
// sequence's database index; warps never share a sequence, so the
// output needs no locking.
type msvRun struct {
	db     *DeviceDB
	prof   *DeviceMSVProfile
	plan   LaunchPlan
	packed bool // residue packing on (off only in the packing ablation)
	out    []cpu.FilterResult
	// states pools per-warp register buffers across the blocks a host
	// worker executes (a fresh allocation per warp per block is pure
	// GC pressure: the buffers are fully re-initialised per sequence).
	states sync.Pool
}

// Shared-memory layout per block for the MSV kernel:
//
//	[0, warps*(M+1))                      per-warp DP row buffers
//	[+, warps*reduceScratchU8)            Fermi reduction scratch
//	[+, deviceAlphaSize*(M+1))            emission table (MemShared only)
func (r *msvRun) rowBase(warpInBlock int) int {
	return warpInBlock * (r.prof.MP.M + 1)
}

func (r *msvRun) scratchBase(w *simt.Warp) int {
	base := r.plan.WarpsPerBlock * (r.prof.MP.M + 1)
	return base + w.WarpInBlock*reduceScratchU8
}

func (r *msvRun) modelBase(hasShuffle bool) int {
	base := r.plan.WarpsPerBlock * (r.prof.MP.M + 1)
	if !hasShuffle {
		base += r.plan.WarpsPerBlock * reduceScratchU8
	}
	return base
}

// msvWarpState holds a warp's registers: 32 u8 lanes each, as
// lanes/8 SWAR words.
type msvWarpState struct {
	cur  []uint64 // previous-row cells at sources p0+l
	next []uint64 // the following chunk's, prefetched (Figure 5)
	temp []uint64 // emission costs in, new cells out
	xEv  []uint64 // running row maximum per lane
	zero []uint64
	tail []uint64 // the lanes a ragged last chunk keeps (M % lanes)
	red  []uint64 // reduction partner register
}

func newMSVWarpState(lanes, m int) *msvWarpState {
	reg := func() []uint64 { return make([]uint64, lanes/lanesPerWordU8) }
	st := &msvWarpState{
		cur: reg(), next: reg(), temp: reg(), xEv: reg(),
		zero: reg(), tail: reg(), red: reg(),
	}
	keepLanes(st.tail, m%lanes, lanesPerWordU8)
	return st
}

// kernel is the warp-synchronous MSV alignment kernel (Algorithm 1).
func (r *msvRun) kernel(w *simt.Warp) {
	lanes := w.Lanes()
	mp := r.prof.MP
	m := mp.M
	const base = uint8(profile.MSVBase)
	overflowAt := mp.OverflowThreshold()
	rowBase := r.rowBase(w.WarpInBlock)
	scratchBase := r.scratchBase(w)
	st, _ := r.states.Get().(*msvWarpState)
	if st == nil {
		st = newMSVWarpState(lanes, m)
	}
	defer r.states.Put(st)
	cur, next := st.cur, st.next
	bias := satmath.SplatU8(mp.Bias)

	// Block prologue: with the model in shared memory, the block loads
	// the emission table from global once (metered as the cooperative
	// load it would be; warp 0 performs it here, which the simulator's
	// in-order warp start makes visible to its block mates).
	if r.plan.MemConfig == MemShared && w.WarpInBlock == 0 {
		mb := r.modelBase(w.HasShuffle())
		tableBytes := deviceAlphaSize * (m + 1)
		for off := 0; off < tableBytes; off += 4 * lanes {
			n := (tableBytes - off + 3) / 4
			if n > lanes {
				n = lanes
			}
			w.GlobalSpanLoad(r.prof.TableAddr+int64(off), 4, n)
		}
		// Materialise the table so emission reads flow through the
		// simulated shared memory (stores metered in 32-byte groups).
		for rcode := 0; rcode < deviceAlphaSize; rcode++ {
			src := r.prof.Cost[rcode]
			for k0 := 0; k0 <= m; k0 += lanes {
				n := m + 1 - k0
				if n > lanes {
					n = lanes
				}
				w.SharedSpanStoreU8(src[k0:], mb+rcode*(m+1)+k0, n)
			}
		}
	}

	nSeqs := len(r.db.Packed)
	span := w.TotalWarps()
	for seqID := w.GlobalWarpID(); seqID < nSeqs; seqID += span {
		words := r.db.Packed[seqID]
		seqAddr := r.db.Addr[seqID]
		seqLen := r.db.Lens[seqID]
		w.ALU(4) // loop/index setup

		// Clear this warp's DP row buffer (the -inf floor is byte 0).
		for p0 := 0; p0 <= m; p0 += lanes {
			n := m + 1 - p0
			if n > lanes {
				n = lanes
			}
			w.SharedSpanStoreWords(st.zero, rowBase+p0, n, 1)
		}

		xJ := uint8(0)
		xB := satmath.SubU8(base, mp.TJB)
		overflowed := false

		for i := 0; i < seqLen; i++ {
			// Fetch the packed word holding residue i (all lanes read
			// the same address: one transaction, hardware broadcast).
			if r.packed {
				if i%alphabet.ResiduesPerWord == 0 {
					w.GlobalBroadcastLoad(packedWordAddr(seqAddr, i/alphabet.ResiduesPerWord), 4)
				}
			} else {
				// Packing ablation: one byte-per-residue fetch per row.
				w.GlobalBroadcastLoad(seqAddr+int64(i), 1)
			}
			res := alphabet.PackedAt(words, i)
			if res == alphabet.PackSentinel {
				// Redundant-cell flag (Figure 6): end of sequence.
				break
			}
			w.ALU(2) // decode: shift + mask

			costRow := r.prof.Cost[res]
			xBtbm := satmath.SplatU8(satmath.SubU8(xB, mp.TBM))
			clear(st.xEv)
			w.ALU(2)

			// Step 1 (Figure 5): load the first 32 previous-row cells.
			r.loadRow(w, cur, rowBase, 0, m)

			for p0 := 0; p0 < m; p0 += lanes {
				// Step 2: cache the next 32 dependencies before the
				// in-place update can overwrite the warp boundary.
				if p0+lanes < m {
					r.loadRow(w, next, rowBase, p0+lanes, m)
				}

				// Emission costs for target positions p0+1+l.
				r.loadCosts(w, st.temp, costRow, res, p0, m)

				// temp = max(mmx, xB) + bias - em(res, p)  (line 15).
				// Lanes past the model in a ragged last chunk are
				// inactive: they are forced to 0, the max identity, so
				// they never reach the row maximum.
				n := min(lanes, m-p0)
				for j, c := range cur {
					sv := satmath.MaxU8x8(c, xBtbm)
					sv = satmath.AddU8x8(sv, bias)
					sv = satmath.SubU8x8(sv, st.temp[j])
					if n < lanes {
						sv &= st.tail[j]
					}
					st.temp[j] = sv
					st.xEv[j] = satmath.MaxU8x8(st.xEv[j], sv)
				}
				w.ALU(4)

				// Step 3: write the updated cells back (line 18).
				w.SharedSpanStoreWords(st.temp, rowBase+p0+1, n, 1)

				cur, next = next, cur
			}

			// Warp-shuffled max reduction and broadcast (line 20).
			xE := warpMaxU8(w, st.xEv, st.red, scratchBase)
			if xE >= overflowAt {
				overflowed = true
				break
			}
			xJ = satmath.MaxU8(xJ, satmath.SubU8(xE, mp.TEC))
			xB = satmath.SubU8(satmath.MaxU8(base, xJ), mp.TJB)
			w.ALU(4)
		}

		if overflowed {
			r.out[seqID] = cpu.FilterResult{Score: math.Inf(1), Overflowed: true}
		} else {
			r.out[seqID] = cpu.FilterResult{Score: mp.ScoreToNats(xJ)}
		}
		// Save the final score (line 23): one active lane, 8 bytes.
		w.GlobalSpanStore(r.db.ScoreAddr+int64(8*seqID), 8, 1)
	}
}

// loadRow reads previous-row cells at positions p0+l into dst through
// shared memory (consecutive bytes: intrinsically conflict-free).
func (r *msvRun) loadRow(w *simt.Warp, dst []uint64, rowBase, p0, m int) {
	n := m + 1 - p0
	if lanes := w.Lanes(); n > lanes {
		n = lanes
	}
	w.SharedSpanLoadWords(dst, rowBase+p0, n, 1)
}

// loadCosts fetches the emission costs for targets p0+1+l into dst,
// metering shared or global traffic per the launch's memory
// configuration.
func (r *msvRun) loadCosts(w *simt.Warp, dst []uint64, costRow []uint8, res byte, p0, m int) {
	n := m - p0
	if lanes := w.Lanes(); n > lanes {
		n = lanes
	}
	if r.plan.MemConfig == MemShared {
		mb := r.modelBase(w.HasShuffle())
		w.SharedSpanLoadWords(dst, mb+int(res)*(m+1)+p0+1, n, 1)
		return
	}
	w.GlobalSpanLoadCached(r.prof.TableAddr+int64(int(res)*(m+1)+p0+1), 1, n)
	satmath.PackLanes(dst, costRow[p0+1:p0+1+n])
}
