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

// msvWarpState holds a warp's registers as whole DP rows of u8 cells,
// eight lanes to a SWAR word, lane k in word k/8, each row as many
// whole chunks as hold cells 0..M.
type msvWarpState struct {
	row  []uint64 // previous-row cells at sources k, then the new cells at targets k+1, all +bias
	cost []uint64 // emission costs at targets k+1
	xEv  []uint64 // each lane's row maximum, for the Fermi scratch rounds
	red  []uint64 // their partner register
}

// msvStates pools warp register files across every launch and block
// (a fresh allocation per warp is pure GC pressure: the registers are
// fully re-initialised per sequence).
var msvStates sync.Pool

// getMSVState takes a register file from the pool, sized for a model
// of size m on warps of the given width.
func getMSVState(lanes, m int) *msvWarpState {
	st, _ := msvStates.Get().(*msvWarpState)
	if st == nil {
		st = new(msvWarpState)
	}
	regWords := lanes / lanesPerWordU8
	rowWords := (m/lanes + 1) * regWords
	st.row, st.cost = words(st.row, rowWords), words(st.cost, rowWords)
	st.xEv, st.red = words(st.xEv, regWords), words(st.red, regWords)
	return st
}

// kernel is the warp-synchronous MSV alignment kernel (Algorithm 1),
// run a DP row at a time: each row's previous cells, emission costs and
// new cells move through shared memory in one span each, charged as
// the 32-cell chunks of Algorithm 1 (see reduce.go). The row is biased,
// as cpu.MSVEngine's is (satmath.MSVStepU8x8).
func (r *msvRun) kernel(w *simt.Warp) {
	lanes := w.Lanes()
	mp := r.prof.MP
	m := mp.M
	chunks := (m + lanes - 1) / lanes
	// Each chunk reads its 32 sources; the last one's stop at cell m.
	srcCells := min(m+1, chunks*lanes)
	// The words holding the M targets: full ones, then a ragged last
	// one when m is not a whole number of words, and the lanes of that
	// one inside the model.
	full, nw := m/lanesPerWordU8, (m+lanesPerWordU8-1)/lanesPerWordU8
	tailKeep := keepWord(m, lanesPerWordU8)
	const base = uint8(profile.MSVBase)
	overflowAt := mp.OverflowThreshold()
	rowBase := r.rowBase(w.WarpInBlock)
	scratchBase := r.scratchBase(w)
	modelBase := r.modelBase(w.HasShuffle())
	st := getMSVState(lanes, m)
	defer msvStates.Put(st)
	bias := satmath.SplatU8(mp.Bias)

	// A row's fixed work: decode and row set-up, line 15 per chunk, a
	// folded reduction, and the specials when the row does not exit.
	exitRow := w.NewCharge()
	exitRow.ALU(4 + 4*chunks)
	folds := chargeReduction(&exitRow, w)
	nextRow := exitRow
	nextRow.ALU(4)

	// Block prologue: with the model in shared memory, the block loads
	// the emission table from global once (metered as the cooperative
	// load it would be; warp 0 performs it here, which the simulator's
	// in-order warp start makes visible to its block mates).
	if r.plan.MemConfig == MemShared && w.WarpInBlock == 0 {
		tableBytes := deviceAlphaSize * (m + 1)
		w.GlobalSpanLoad(r.prof.TableAddr, 4, (tableBytes+3)/4)
		// Materialise the table so emission reads flow through the
		// simulated shared memory.
		for rcode := 0; rcode < deviceAlphaSize; rcode++ {
			w.SharedSpanStoreU8(r.prof.Cost[rcode], modelBase+rcode*(m+1), m+1)
		}
	}

	nSeqs := len(r.db.Packed)
	span := w.TotalWarps()
	for seqID := w.GlobalWarpID(); seqID < nSeqs; seqID += span {
		words := r.db.Packed[seqID]
		seqAddr := r.db.Addr[seqID]
		seqLen := r.db.Lens[seqID]
		w.ALU(4) // loop/index setup

		// Clear this warp's DP row buffer to the -inf floor, bias.
		for j := range st.row {
			st.row[j] = bias
		}
		w.SharedSpanStoreWords(st.row, rowBase, m+1, 1)

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

			// Steps 1-2 (Figure 5): every previous-row cell the chunks
			// read, loaded before the row is written — the double
			// buffer's loads, charged chunk by chunk.
			w.SharedSpanLoadWords(st.row, rowBase, srcCells, 1)

			// Emission costs for every target 1..M.
			var cost []uint64
			if r.plan.MemConfig == MemShared {
				w.SharedSpanLoadWords(st.cost, modelBase+int(res)*(m+1)+1, m, 1)
				cost = st.cost
			} else {
				w.GlobalSpanLoadCached(r.prof.TableAddr+int64(int(res)*(m+1)+1), 1, m)
				cost = r.prof.costWords[res]
			}

			// temp = max(mmx, xB) + bias - em(res, p)  (line 15), in
			// place, on the biased row.
			xBv := satmath.SplatU8(satmath.AddU8(satmath.SubU8(xB, mp.TBM), mp.Bias))
			row := st.row[:nw]
			xEv := satmath.MSVRowU8(row[:full], row[:full], cost[:full], xBv, bias)
			if full < nw {
				// Lanes past the model in the ragged last word are
				// inactive: they are forced to 0, the max identity, so
				// they never reach the row maximum, which is folded as
				// the words are.
				sv := satmath.MSVStepU8x8(row[full], xBv, cost[full]) & tailKeep
				row[full] = sv + bias
				xEv = satmath.MaxU8x8(xEv, sv)
			}

			// Step 3: write the updated cells back (line 18).
			w.SharedSpanStoreWords(st.row, rowBase+1, m, 1)

			// Warp-shuffled max reduction and broadcast (line 20).
			xE := satmath.HMaxU8x8(xEv) // identical on every lane (broadcast)
			if !folds {
				xE = scratchMaxU8(w, row, bias, st.xEv, st.red, scratchBase)
			}
			if xE >= overflowAt {
				w.Apply(&exitRow)
				overflowed = true
				break
			}
			xJ = satmath.MaxU8(xJ, satmath.SubU8(xE, mp.TEC))
			xB = satmath.SubU8(satmath.MaxU8(base, xJ), mp.TJB)
			w.Apply(&nextRow)
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
