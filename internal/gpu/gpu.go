// Package gpu implements the paper's contribution: fine-grained,
// architecture-aware MSV and P7Viterbi kernels for SIMT processors,
// running on the internal/simt device simulator.
//
// The implementation follows Section III of the paper:
//
//   - Warp-synchronous execution: one warp scores one sequence; each DP
//     row is covered by the warp looping over the model in 32-position
//     chunks, with the warp-boundary diagonal protected by
//     double-buffered registers (Figure 5) instead of __syncthreads.
//     The simulator executes a whole row at once and charges the device
//     those chunks exactly (below).
//   - Three-tiered parallelization: warp <-> sequence, multiple warps
//     (sequences) per block, multiple blocks per device; finished warps
//     pull the next sequence with a grid-wide stride (Algorithm 1).
//   - Warp-shuffled reduction for the row maximum on Kepler; a
//     shared-memory reduction fallback on Fermi (which costs extra
//     shared memory and occupancy, as the paper reports).
//   - Residue packing: 6 five-bit residues per 32-bit word with the 31
//     sentinel as loop terminator (Figure 6).
//   - Parallel Lazy-F for the P7Viterbi D-D chain using the warp-vote
//     __all instruction (Figure 7).
//   - Shared vs global memory configurations for the model parameters,
//     selectable per launch, with occupancy-driven auto selection.
//
// DP row buffers live in (simulated) shared memory and every row
// really flows through it: each row region is read and written once
// per row, in one span the simulator charges as the 32-cell chunks of
// the paper's loop, so the Figure 5 double buffer is charged, not
// executed — the whole previous row is read before any of it is
// written. Model-parameter reads are metered through the simulator
// (shared or global per the configuration) while their values come
// from the host-side tables; DESIGN.md documents this simplification.
//
// A warp's registers are satmath SWAR words holding a whole DP row, not
// one slice element per lane (reduce.go, DESIGN §2f): the device is
// charged for 32 lanes in lock-step, chunk by chunk, the host computes
// them eight or four to a uint64 along the row. Where the block's
// shared memory is exact (no fault overlay, no race tracking), the
// Fermi reduction's scratch rounds are charged and folded in registers
// rather than run through shared memory.
package gpu

import (
	"fmt"

	"hmmer3gpu/internal/simt"
)

// MemConfig selects where the model parameters live on the device —
// the paper's two configurations in Figure 9.
type MemConfig int

const (
	// MemAuto (the zero value) picks the configuration with the better
	// occupancy for the model size (ties go to shared) — the paper's
	// "optimal speedup strategy" black curve.
	MemAuto MemConfig = iota
	// MemShared buffers the model (emission costs, transitions) in
	// shared memory: fastest for small models, strangles occupancy for
	// large ones.
	MemShared
	// MemGlobal leaves the model in global memory: higher latency and
	// traffic, but occupancy stays high for large models.
	MemGlobal
	// MemSpill (P7Viterbi only; beyond the paper) additionally spills
	// the DP row buffers to L2-cached global memory, recovering the
	// register-ceiling occupancy on very large models where even the
	// global configuration collapses.
	MemSpill
)

func (m MemConfig) String() string {
	switch m {
	case MemShared:
		return "shared"
	case MemGlobal:
		return "global"
	case MemSpill:
		return "spill"
	case MemAuto:
		return "auto"
	default:
		return fmt.Sprintf("MemConfig(%d)", int(m))
	}
}

// ParseMemConfig parses the CLI spelling of a memory configuration
// (the -mem flag of hmmsearch, hmmworker and hmmserved). MemSpill is
// for the spill study only and has no spelling.
func ParseMemConfig(s string) (MemConfig, error) {
	switch s {
	case "auto":
		return MemAuto, nil
	case "shared":
		return MemShared, nil
	case "global":
		return MemGlobal, nil
	}
	return 0, fmt.Errorf("gpu: unknown -mem %q (want auto, shared or global)", s)
}

// Kernel kind, used for resource accounting.
type kernelKind int

const (
	kindMSV kernelKind = iota
	kindVit
)

// Register footprints of the two kernels (per thread). The Viterbi
// kernel's heavier row state (M, I and D buffers plus the lazy-F
// machinery) costs roughly twice the registers, which is what caps its
// occupancy at 50% on Kepler and below that on Fermi (§IV).
const (
	msvRegsPerThread = 32
	vitRegsPerThread = 64
)

// deviceAlphaSize is the residue-row count of the on-device emission
// tables: 20 canonical residues plus B, J, Z and X. O and U expand to
// exactly one canonical residue each and are remapped at upload time;
// gap-like codes score as impossible and need no row.
const deviceAlphaSize = 24

// reduceScratchU8 and reduceScratchI16 are the per-warp shared-memory
// scratch bytes needed by the Fermi reduction fallback.
const (
	reduceScratchU8  = 32
	reduceScratchI16 = 64
)

// sharedBytes returns the shared-memory footprint per block for a
// kernel of the given kind, model size m, warps per block, and memory
// configuration on the given device.
func sharedBytes(spec simt.DeviceSpec, kind kernelKind, m, warps int, cfg MemConfig) int {
	var b int
	switch kind {
	case kindMSV:
		b = warps * (m + 1) // one byte row buffer per warp
		if !spec.HasShuffle {
			b += warps * reduceScratchU8
		}
		if cfg == MemShared {
			b += deviceAlphaSize * (m + 1) // emission cost table
		}
	case kindVit:
		b = warps * 6 * (m + 1) // three int16 row buffers per warp
		if !spec.HasShuffle {
			b += warps * reduceScratchI16
		}
		if cfg == MemShared {
			// emission table (int16) + 7 transition arrays (int16)
			b += 2*deviceAlphaSize*(m+1) + 7*2*(m+1)
		}
	}
	return b
}

func regsPerThread(kind kernelKind) int {
	if kind == kindMSV {
		return msvRegsPerThread
	}
	return vitRegsPerThread
}

// LaunchPlan is a tuned kernel configuration for one (device, model,
// memory-config) combination.
type LaunchPlan struct {
	MemConfig      MemConfig
	WarpsPerBlock  int
	Blocks         int
	SharedPerBlock int
	Occupancy      simt.Occupancy
	// RowsInGlobal marks the Viterbi row-spill variant: DP rows live
	// in (L2-cached) global memory instead of shared memory, trading
	// per-access cost for occupancy on very large models — the fix for
	// the shared-memory collapse beyond M~1000 that the paper's §V
	// points toward ("any further improvements ... would directly
	// depend on the performance of shared memory and global memory").
	RowsInGlobal bool
}

// planLaunch picks the warps-per-block that maximises occupancy
// (preferring wider blocks on ties, which reduces per-block overhead),
// then sizes the grid to exactly fill the device's resident capacity.
func planLaunch(spec simt.DeviceSpec, kind kernelKind, m int, cfg MemConfig) (LaunchPlan, error) {
	if cfg == MemSpill {
		return planSpill(spec, kind, m)
	}
	if cfg == MemAuto {
		shared, errS := planLaunch(spec, kind, m, MemShared)
		global, errG := planLaunch(spec, kind, m, MemGlobal)
		switch {
		case errS != nil && errG != nil:
			return LaunchPlan{}, errG
		case errS != nil:
			return global, nil
		case errG != nil:
			return shared, nil
		case shared.Occupancy.Fraction*2 > global.Occupancy.Fraction:
			// Shared is preferred up to a 2x occupancy deficit: its
			// model-parameter accesses cost a fraction of a global
			// transaction's latency and traffic, which buys back about
			// one halving of occupancy. On the K40 this rule flips MSV
			// from shared to global just above model size 1000 — the
			// paper's measured switching threshold of 1002.
			return shared, nil
		default:
			return global, nil
		}
	}
	best := LaunchPlan{MemConfig: cfg}
	found := false
	for _, w := range []int{2, 4, 8, 16, 32} {
		if w*spec.WarpSize > spec.MaxThreadsPerBlock {
			continue
		}
		sb := sharedBytes(spec, kind, m, w, cfg)
		if sb > spec.SharedMemPerBlockMax {
			continue
		}
		occ := spec.CalcOccupancy(simt.KernelResources{
			RegsPerThread:   regsPerThread(kind),
			SharedPerBlock:  sb,
			ThreadsPerBlock: w * spec.WarpSize,
		})
		if occ.BlocksPerSM == 0 {
			continue
		}
		if !found || occ.Fraction >= best.Occupancy.Fraction {
			found = true
			best.WarpsPerBlock = w
			best.SharedPerBlock = sb
			best.Occupancy = occ
		}
	}
	if !found {
		return LaunchPlan{}, fmt.Errorf("gpu: model size %d does not fit the %s configuration on %s",
			m, cfg, spec.Name)
	}
	best.Blocks = best.Occupancy.BlocksPerSM * spec.SMCount
	return best, nil
}

// PlanMSV exposes launch planning for the MSV kernel (used by the
// benchmark harness to report occupancy).
func PlanMSV(spec simt.DeviceSpec, m int, cfg MemConfig) (LaunchPlan, error) {
	return planLaunch(spec, kindMSV, m, cfg)
}

// PlanViterbi exposes launch planning for the P7Viterbi kernel.
func PlanViterbi(spec simt.DeviceSpec, m int, cfg MemConfig) (LaunchPlan, error) {
	return planLaunch(spec, kindVit, m, cfg)
}

// planSpill plans the P7Viterbi row-spill variant: only the Fermi
// reduction scratch stays in shared memory; the model and the DP rows
// live in (L2-cached) global memory.
func planSpill(spec simt.DeviceSpec, kind kernelKind, m int) (LaunchPlan, error) {
	if kind != kindVit {
		return LaunchPlan{}, fmt.Errorf("gpu: the spill configuration applies to the P7Viterbi kernel only")
	}
	best := LaunchPlan{MemConfig: MemSpill, RowsInGlobal: true}
	found := false
	for _, w := range []int{2, 4, 8, 16, 32} {
		if w*spec.WarpSize > spec.MaxThreadsPerBlock {
			continue
		}
		sb := 0
		if !spec.HasShuffle {
			sb = w * reduceScratchI16
		}
		occ := spec.CalcOccupancy(simt.KernelResources{
			RegsPerThread:   vitRegsPerThread,
			SharedPerBlock:  sb,
			ThreadsPerBlock: w * spec.WarpSize,
		})
		if occ.BlocksPerSM == 0 {
			continue
		}
		if !found || occ.Fraction >= best.Occupancy.Fraction {
			found = true
			best.WarpsPerBlock = w
			best.SharedPerBlock = sb
			best.Occupancy = occ
		}
	}
	if !found {
		return LaunchPlan{}, fmt.Errorf("gpu: spill configuration does not fit on %s", spec.Name)
	}
	best.Blocks = best.Occupancy.BlocksPerSM * spec.SMCount
	return best, nil
}
