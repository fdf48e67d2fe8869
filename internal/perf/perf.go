// Package perf converts the simulator's kernel counters and the
// baseline's workload size into modelled execution times, from which
// the benchmark harness derives the paper's speedup figures.
//
// The model is deliberately simple and fully documented:
//
//	T_gpu = max(T_issue, T_dram) + launch overhead
//	T_issue = IssueCycles / (SMs * IPC * eff(occupancy) * clock)
//	T_dram  = (GlobalBytes + CachedBytes * l2Miss) / bandwidth
//	T_cpu   = cells / (cellsPerCycle * cores * clock)
//
// Everything that produces the paper's curve *shapes* — the
// shared/global occupancy trade-off, the Viterbi register ceiling, the
// Fermi shuffle and register-file penalties, multi-GPU partitioning —
// comes from the simulator's counters and the occupancy calculation,
// not from these constants. The constants only anchor absolute scale
// (one calibration, documented in constants.go and DESIGN.md §5).
package perf

import "hmmer3gpu/internal/simt"

// CPUSpec models the baseline host: HMMER 3.0 with SSE on a multicore
// CPU.
type CPUSpec struct {
	Name    string
	Cores   int
	ClockHz float64
	// MSVCellsPerCycle and VitCellsPerCycle are per-core DP-cell
	// throughputs of the striped filters (calibration constants).
	MSVCellsPerCycle float64
	VitCellsPerCycle float64
}

// BaselineI5 returns the paper's baseline: a quad-core Intel Core i5
// at 3.4 GHz running HMMER 3.0's SSE filters on all cores.
func BaselineI5() CPUSpec {
	return CPUSpec{
		Name:             "Intel Core i5 quad-core @ 3.4 GHz (SSE, 4 threads)",
		Cores:            4,
		ClockHz:          3.4e9,
		MSVCellsPerCycle: msvCPUCellsPerCycle,
		VitCellsPerCycle: vitCPUCellsPerCycle,
	}
}

// CPUTimeMSV returns the modelled baseline time to run the MSV filter
// over the given number of DP cells (residues x model size).
func CPUTimeMSV(c CPUSpec, cells int64) float64 {
	return float64(cells) / (c.MSVCellsPerCycle * float64(c.Cores) * c.ClockHz)
}

// CPUTimeVit returns the modelled baseline time for the Viterbi filter.
func CPUTimeVit(c CPUSpec, cells int64) float64 {
	return float64(cells) / (c.VitCellsPerCycle * float64(c.Cores) * c.ClockHz)
}

// CPUTimeFwd returns the modelled baseline time for the full-precision
// Forward stage.
func CPUTimeFwd(c CPUSpec, cells int64) float64 {
	return float64(cells) / (fwdCPUCellsPerCycle * float64(c.Cores) * c.ClockHz)
}

// GPUTime converts one launch report into modelled seconds on the
// given device.
func GPUTime(spec simt.DeviceSpec, rep *simt.LaunchReport) float64 {
	return GPUTimeScaled(spec, rep, 1)
}

// GPUTimeScaled models the launch's time with its cell-linear work
// multiplied by scale — used by the harness to report paper-scale
// database times from scaled-down simulation runs (counters are linear
// in the workload; only the fixed launch overhead does not scale).
func GPUTimeScaled(spec simt.DeviceSpec, rep *simt.LaunchReport, scale float64) float64 {
	ipc := effectiveIPC(spec)
	eff := issueEfficiency(rep.Occupancy)
	issueCap := float64(spec.SMCount) * ipc * eff * spec.ClockHz
	tIssue := float64(rep.Stats.IssueCycles+rep.Stats.SyncStallCycles) / issueCap

	dramBytes := float64(rep.Stats.GlobalBytes) + float64(rep.Stats.CachedBytes)*l2MissRate
	tDram := dramBytes / spec.MemBandwidth

	t := tIssue
	if tDram > t {
		t = tDram
	}
	return t*scale + launchOverheadSec
}

// effectiveIPC is the sustained warp-instructions-per-cycle-per-SM for
// these integer/memory-heavy kernels: one per scheduler, plus a modest
// dual-dispatch bonus on Kepler (the paper's step 1/2 overlap).
func effectiveIPC(spec simt.DeviceSpec) float64 {
	return float64(spec.SchedulersPerSM) * (1 + dualIssueBonus*float64(spec.DispatchPerScheduler-1))
}

// issueEfficiency models latency hiding: the SM sustains full issue
// only with enough resident warps; below the saturation point the
// issue rate degrades linearly. The saturation point (24 warps) is why
// the paper's speedups track occupancy so closely.
func issueEfficiency(occ simt.Occupancy) float64 {
	if occ.WarpsPerSM >= warpsToSaturate {
		return 1
	}
	if occ.WarpsPerSM <= 0 {
		return 1.0 / float64(warpsToSaturate)
	}
	return float64(occ.WarpsPerSM) / float64(warpsToSaturate)
}

// Speedup is a convenience: baseline seconds over accelerated seconds.
func Speedup(cpuSec, gpuSec float64) float64 {
	if gpuSec <= 0 {
		return 0
	}
	return cpuSec / gpuSec
}
