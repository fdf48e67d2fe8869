package gpu

import (
	"fmt"
	"math"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/simt"
)

// Synchronised multi-warp MSV kernel — the generic parallelisation the
// paper argues against (Figure 4): one block scores one sequence, all
// the block's warps update each DP row in place, which requires two
// __syncthreads per sweep (after reading the diagonal dependencies and
// after writing back) plus more for the cross-warp row-max reduction.
// The warp schedulers' freedom to interleave warps makes every barrier
// a stall; the paper's warp-synchronous design exists to eliminate
// them.
//
// With skipSyncs the same kernel runs without its barriers,
// demonstrating the racing hazard at warp boundaries (yellow cells of
// Figure 4) — the simulator's race tracker flags the unsynchronised
// cross-warp accesses.

type syncedMSVRun struct {
	db        *DeviceDB
	prof      *DeviceMSVProfile
	warps     int
	skipSyncs bool
	out       []cpu.FilterResult
}

func (r *syncedMSVRun) sync(w *simt.Warp) {
	if !r.skipSyncs {
		w.Sync()
	}
}

func (r *syncedMSVRun) kernel(w *simt.Warp) {
	lanes := w.Lanes()
	mp := r.prof.MP
	m := mp.M
	const base = uint8(profile.MSVBase)
	overflowAt := mp.OverflowThreshold()
	threads := r.warps * lanes
	// The per-warp reduction is the warp-synchronous kernel's, which
	// takes its operand as register words.
	reduction := w.NewCharge()
	folds := chargeReduction(&reduction, w)
	xEvReg := make([]uint64, lanes/lanesPerWordU8)
	vals := make([]uint64, lanes/lanesPerWordU8)
	partner := make([]uint64, lanes/lanesPerWordU8)
	// Block shared layout: row buffer [0, M+1), then one byte per warp
	// of reduction scratch (word-padded), then Fermi warp scratch.
	redBase := (m + 1 + 3) &^ 3
	warpScratch := redBase + ((r.warps + 3) &^ 3)

	cur := make([]uint8, lanes)
	temp := make([]uint8, lanes)
	xEv := make([]uint8, lanes)
	zero := make([]uint8, lanes)

	for seqID := w.BlockIdx; seqID < len(r.db.Packed); seqID += w.NumBlocks {
		words := r.db.Packed[seqID]
		seqAddr := r.db.Addr[seqID]
		seqLen := r.db.Lens[seqID]
		w.ALU(4)

		// Cooperatively clear the row buffer.
		for p0 := w.WarpInBlock * lanes; p0 <= m; p0 += threads {
			w.SharedSpanStoreU8(zero, p0, min(lanes, m+1-p0))
		}
		r.sync(w)

		xJ := uint8(0)
		xB := satmath.SubU8(base, mp.TJB)
		overflowed := false

		for i := 0; i < seqLen; i++ {
			if i%alphabet.ResiduesPerWord == 0 {
				w.GlobalBroadcastLoad(packedWordAddr(seqAddr, i/alphabet.ResiduesPerWord), 4)
			}
			res := alphabet.PackedAt(words, i)
			if res == alphabet.PackSentinel {
				break
			}
			w.ALU(2)
			costRow := r.prof.Cost[res]
			xBtbm := satmath.SubU8(xB, mp.TBM)
			for l := 0; l < lanes; l++ {
				xEv[l] = 0
			}
			w.ALU(2)

			for sweep := 0; sweep*threads < m; sweep++ {
				p0 := sweep*threads + w.WarpInBlock*lanes
				// This warp's cells in the sweep: none when p0 >= m.
				n := min(lanes, m-p0)
				// Read the diagonal dependencies (sources p0+l).
				w.SharedSpanLoadU8(cur, p0, n)
				// First synchronisation: everyone must have read before
				// anyone writes (Figure 4, annotation 1).
				r.sync(w)

				for l := 0; l < n; l++ {
					t := p0 + 1 + l
					sv := satmath.MaxU8(cur[l], xBtbm)
					sv = satmath.AddU8(sv, mp.Bias)
					sv = satmath.SubU8(sv, costRow[t])
					temp[l] = sv
					xEv[l] = satmath.MaxU8(xEv[l], sv)
				}
				w.ALU(4)
				w.SharedSpanStoreU8(temp, p0+1, n)
				// Second synchronisation: the row must be fully written
				// before the next sweep reads it (annotation 2).
				r.sync(w)
			}

			// Cross-warp row-max reduction through shared memory:
			// per-warp max, leaders publish, barrier, warp 0 reduces,
			// barrier, everyone reads the result.
			satmath.PackLanes(xEvReg, xEv)
			var acc uint64
			for _, v := range xEvReg {
				acc = satmath.MaxU8x8(acc, v)
			}
			warpMax := satmath.HMaxU8x8(acc)
			if folds {
				w.Apply(&reduction)
			} else {
				warpMax = scratchMaxU8(w, xEvReg, 0, vals, partner, warpScratch+w.WarpInBlock*reduceScratchU8)
			}
			temp[0] = warpMax
			w.SharedSpanStoreU8(temp, redBase+w.WarpInBlock, 1)
			r.sync(w)
			var xE uint8
			if w.WarpInBlock == 0 {
				w.SharedSpanLoadU8(temp, redBase, r.warps)
				for l := 0; l < r.warps; l++ {
					if temp[l] > xE {
						xE = temp[l]
					}
				}
				w.ALU(1)
				temp[0] = xE
				w.SharedSpanStoreU8(temp, redBase, 1)
			}
			r.sync(w)
			xE = w.SharedBroadcastU8(redBase)
			// Third barrier: warp 0 will overwrite redBase for the next
			// row; laggards must have read this row's value first.
			r.sync(w)

			if xE >= overflowAt {
				overflowed = true
				break
			}
			xJ = satmath.MaxU8(xJ, satmath.SubU8(xE, mp.TEC))
			xB = satmath.SubU8(satmath.MaxU8(base, xJ), mp.TJB)
			w.ALU(4)
		}

		if w.WarpInBlock == 0 {
			if overflowed {
				r.out[seqID] = cpu.FilterResult{Score: math.Inf(1), Overflowed: true}
			} else {
				r.out[seqID] = cpu.FilterResult{Score: mp.ScoreToNats(xJ)}
			}
			w.GlobalSpanStore(r.db.ScoreAddr+int64(8*seqID), 8, 1)
		}
		r.sync(w)
	}
}

// MSVSearchSynced runs the synchronised multi-warp MSV baseline. With
// skipSyncs=true the barriers are elided to demonstrate the warp-
// boundary race (check Launch.Stats.SharedRaces); scores are then
// unreliable by construction.
func (s *Searcher) MSVSearchSynced(dp *DeviceMSVProfile, db *DeviceDB, skipSyncs bool) (*SearchReport, error) {
	spec := s.Dev.Spec
	const warps = 4
	shared := (dp.MP.M + 1 + 3) & ^3
	shared += (warps + 3) & ^3
	shared += warps * reduceScratchU8
	if shared > spec.SharedMemPerBlockMax {
		return nil, fmt.Errorf("gpu: model size %d does not fit a single block on %s", dp.MP.M, spec.Name)
	}
	occ := spec.CalcOccupancy(simt.KernelResources{
		RegsPerThread:   msvRegsPerThread,
		SharedPerBlock:  shared,
		ThreadsPerBlock: warps * spec.WarpSize,
	})
	blocks := occ.BlocksPerSM * spec.SMCount
	if blocks < 1 {
		return nil, fmt.Errorf("gpu: model size %d does not fit a single block on %s", dp.MP.M, spec.Name)
	}
	run := &syncedMSVRun{
		db:        db,
		prof:      dp,
		warps:     warps,
		skipSyncs: skipSyncs,
		out:       make([]cpu.FilterResult, len(db.Packed)),
	}
	rep, err := s.Dev.Launch(simt.LaunchConfig{
		Name:                "msv_synced",
		Blocks:              blocks,
		WarpsPerBlock:       warps,
		SharedBytesPerBlock: shared,
		RegsPerThread:       msvRegsPerThread,
		Cooperative:         true,
		DetectRaces:         true,
		HostWorkers:         s.HostWorkers,
	}, run.kernel)
	if err != nil {
		return nil, err
	}
	plan := LaunchPlan{
		MemConfig:      MemGlobal,
		WarpsPerBlock:  warps,
		Blocks:         blocks,
		SharedPerBlock: shared,
		Occupancy:      occ,
	}
	return &SearchReport{Results: run.out, Plan: plan, Launch: rep}, nil
}
