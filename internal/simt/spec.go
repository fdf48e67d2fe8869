// Package simt is a warp-accurate simulator of the CUDA SIMT execution
// model, built as the stand-in for the NVIDIA hardware the paper runs
// on (Tesla K40 Kepler and GTX 580 Fermi). Kernels are ordinary Go
// functions written against a Warp context that provides shared-memory
// spans and broadcasts (conflict-free by construction), global-memory
// spans and broadcasts with 128-byte transaction accounting, Kepler
// warp shuffles, warp votes, and block barriers. The simulator enforces the warp as
// the atomic unit of execution, detects cross-warp shared-memory races
// between barriers, and records the instruction and memory counters
// that the performance model (internal/perf) converts into kernel
// time through the standard CUDA occupancy calculation.
package simt

import "fmt"

// Arch identifies a GPU micro-architecture generation.
type Arch int

const (
	// Fermi is the GF100/GF110 generation (GTX 580): no warp shuffle,
	// 32K registers per SM, 2 schedulers with single dispatch.
	Fermi Arch = iota
	// Kepler is the GK110 generation (Tesla K40): warp shuffle, 64K
	// registers per SM, 4 schedulers with dual dispatch.
	Kepler
)

func (a Arch) String() string {
	switch a {
	case Fermi:
		return "Fermi"
	case Kepler:
		return "Kepler"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// DeviceSpec describes the resources of one simulated device.
type DeviceSpec struct {
	Name string
	Arch Arch

	// SMCount is the number of streaming multiprocessors (SM/SMX).
	SMCount int
	// WarpSize is the number of lanes per warp (32 on all CUDA parts).
	WarpSize int
	// MaxWarpsPerSM limits resident warps per multiprocessor.
	MaxWarpsPerSM int
	// MaxBlocksPerSM limits resident blocks per multiprocessor.
	MaxBlocksPerSM int
	// MaxThreadsPerBlock is the per-block thread limit.
	MaxThreadsPerBlock int
	// RegistersPerSM is the 32-bit register file size per SM.
	RegistersPerSM int
	// RegAllocUnit is the register allocation granularity
	// (registers are allocated per warp in units of this many).
	RegAllocUnit int
	// SharedMemPerSM is the shared memory per SM in bytes.
	SharedMemPerSM int
	// SharedMemPerBlockMax caps a single block's shared memory.
	SharedMemPerBlockMax int
	// SharedMemBanks is the number of shared memory banks (32).
	SharedMemBanks int

	// ClockHz is the core clock.
	ClockHz float64
	// SchedulersPerSM is the number of warp schedulers per SM.
	SchedulersPerSM int
	// DispatchPerScheduler is the instructions dispatched per
	// scheduler per cycle (Kepler dual-issue = 2).
	DispatchPerScheduler int
	// HasShuffle reports warp-shuffle instruction support (Kepler).
	HasShuffle bool
	// ECC reports hardware error-correcting memory: an ECC device
	// corrects injected silent bit flips (counting them) instead of
	// surfacing corrupted data. The Tesla parts have it; the consumer
	// GTX cards do not.
	ECC bool
	// MemBandwidth is the global memory bandwidth in bytes/second.
	MemBandwidth float64
	// GlobalLatency is the global memory latency in cycles.
	GlobalLatency float64
	// SharedLatency is the shared memory latency in cycles.
	SharedLatency float64
}

// TeslaK40 returns the Kepler GK110B part used for the paper's
// single-GPU results.
func TeslaK40() DeviceSpec {
	return DeviceSpec{
		Name:                 "Tesla K40 (Kepler GK110B)",
		Arch:                 Kepler,
		SMCount:              15,
		WarpSize:             32,
		MaxWarpsPerSM:        64,
		MaxBlocksPerSM:       16,
		MaxThreadsPerBlock:   1024,
		RegistersPerSM:       65536,
		RegAllocUnit:         256,
		SharedMemPerSM:       49152,
		SharedMemPerBlockMax: 49152,
		SharedMemBanks:       32,
		ClockHz:              745e6,
		SchedulersPerSM:      4,
		DispatchPerScheduler: 2,
		HasShuffle:           true,
		ECC:                  true,
		MemBandwidth:         288e9,
		GlobalLatency:        400,
		SharedLatency:        30,
	}
}

// GTX580 returns the Fermi GF110 part used for the paper's multi-GPU
// scalability study.
func GTX580() DeviceSpec {
	return DeviceSpec{
		Name:                 "GeForce GTX 580 (Fermi GF110)",
		Arch:                 Fermi,
		SMCount:              16,
		WarpSize:             32,
		MaxWarpsPerSM:        48,
		MaxBlocksPerSM:       8,
		MaxThreadsPerBlock:   1024,
		RegistersPerSM:       32768,
		RegAllocUnit:         64,
		SharedMemPerSM:       49152,
		SharedMemPerBlockMax: 49152,
		SharedMemBanks:       32,
		ClockHz:              772e6, // core clock: Fermi issues one warp instruction per scheduler per core cycle (the 1544 MHz "hot" clock runs the ALUs at 2x, one half-warp per hot cycle)
		SchedulersPerSM:      2,
		DispatchPerScheduler: 1,
		HasShuffle:           false,
		MemBandwidth:         192e9,
		GlobalLatency:        600,
		SharedLatency:        40,
	}
}

// KernelResources declares the per-thread/per-block resource usage of
// a kernel, the inputs to the occupancy calculation.
type KernelResources struct {
	RegsPerThread   int
	SharedPerBlock  int
	ThreadsPerBlock int
}

// Occupancy is the result of the CUDA occupancy calculation.
type Occupancy struct {
	BlocksPerSM int
	WarpsPerSM  int
	// Fraction is resident warps / MaxWarpsPerSM, the paper's
	// occupancy metric ("the ratio of the total number of resident
	// threads (warps) and the maximum theoretical number of threads
	// per multiprocessor").
	Fraction float64
	// Limiter names the resource that bounds residency:
	// "warps", "blocks", "registers", "shared", or "none" when no
	// block fits at all.
	Limiter string
}

// CalcOccupancy runs the standard CUDA occupancy calculation for a
// kernel with resource usage r on this device.
func (d DeviceSpec) CalcOccupancy(r KernelResources) Occupancy {
	warpsPerBlock := (r.ThreadsPerBlock + d.WarpSize - 1) / d.WarpSize
	if warpsPerBlock == 0 {
		warpsPerBlock = 1
	}

	// Register allocation: per warp, rounded to the allocation unit.
	regsPerWarp := r.RegsPerThread * d.WarpSize
	if d.RegAllocUnit > 0 {
		regsPerWarp = (regsPerWarp + d.RegAllocUnit - 1) / d.RegAllocUnit * d.RegAllocUnit
	}
	regsPerBlock := regsPerWarp * warpsPerBlock

	byWarps := d.MaxWarpsPerSM / warpsPerBlock
	byBlocks := d.MaxBlocksPerSM
	byRegs := byWarps
	if regsPerBlock > 0 {
		byRegs = d.RegistersPerSM / regsPerBlock
	}
	byShared := byWarps
	if r.SharedPerBlock > 0 {
		if r.SharedPerBlock > d.SharedMemPerBlockMax {
			byShared = 0
		} else {
			byShared = d.SharedMemPerSM / r.SharedPerBlock
		}
	}

	blocks := byWarps
	limiter := "warps"
	if byBlocks < blocks {
		blocks, limiter = byBlocks, "blocks"
	}
	if byRegs < blocks {
		blocks, limiter = byRegs, "registers"
	}
	if byShared < blocks {
		blocks, limiter = byShared, "shared"
	}
	if blocks <= 0 {
		return Occupancy{Limiter: "none"}
	}
	warps := blocks * warpsPerBlock
	if warps > d.MaxWarpsPerSM {
		warps = d.MaxWarpsPerSM
	}
	return Occupancy{
		BlocksPerSM: blocks,
		WarpsPerSM:  warps,
		Fraction:    float64(warps) / float64(d.MaxWarpsPerSM),
		Limiter:     limiter,
	}
}

// String renders the occupancy result compactly.
func (o Occupancy) String() string {
	return fmt.Sprintf("%d blocks/SM, %d warps/SM (%.0f%%, %s-limited)",
		o.BlocksPerSM, o.WarpsPerSM, o.Fraction*100, o.Limiter)
}
