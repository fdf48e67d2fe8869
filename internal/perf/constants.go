package perf

// Calibration constants (DESIGN.md §5). These anchor the absolute
// scale of the time model; they were chosen once so that the Tesla K40
// MSV shared-configuration speedup lands near the paper's ~5x peak at
// model size 800, and are NOT tuned per figure — every other effect
// (crossovers, ceilings, architecture gaps, database differences)
// emerges from the simulator's counters and the occupancy model.
const (
	// msvCPUCellsPerCycle is the per-core throughput of HMMER3's
	// 16-lane 8-bit striped MSV filter: the inner loop retires ~5
	// SSE instructions per 16-cell vector on a superscalar core. Like
	// fwdCPUCellsPerCycle below, this and vitCPUCellsPerCycle are
	// constants of the paper's i5 baseline model, not measurements of
	// cpu.MSVEngine / cpu.VitEngine. Those engines issue HMMER 3.0's
	// own SSE2 instructions on amd64 (internal/satmath's row
	// primitives); at M = 400 on one core of a nominal 2.0 GHz host
	// they ran at ≈ 2.8 (MSV) and ≈ 0.28 (Viterbi) cells per cycle, so
	// MSV agrees with this constant and Viterbi is about half of
	// vitCPUCellsPerCycle (ROADMAP item 18). The Fig. 9–11 output and
	// modelled_gcups deliberately do not follow the engines.
	msvCPUCellsPerCycle = 3.0

	// vitCPUCellsPerCycle is the per-core throughput of the 8-lane
	// 16-bit ViterbiFilter: ~28 SSE instructions per 8-cell vector
	// (three states, four-way max trees, lazy-F bookkeeping).
	vitCPUCellsPerCycle = 0.55

	// fwdCPUCellsPerCycle is the modelled per-core throughput of the
	// full-precision Forward stage on the paper's baseline host — the
	// reason 0.1% of sequences account for ~5% of pipeline time in
	// Figure 1. It is a constant of the model, not a measurement of the
	// host Forward: on a 2.1 GHz Xeon, refimpl.Forward's odds-ratio
	// multiply-adds run at ≈ 0.1–0.15 cells per cycle and ForwardPair's
	// two SSE2 lanes at about twice that (EXPERIMENTS E30), and the
	// Figure 1 / E6 output deliberately does not follow either.
	fwdCPUCellsPerCycle = 0.05

	// dualIssueBonus is the fraction of a second instruction slot the
	// Kepler dual-dispatch schedulers fill on this dependent integer
	// code (the paper's concurrent step 1/2 of Figure 5).
	dualIssueBonus = 0.25

	// warpsToSaturate is the resident-warp count per SM at which the
	// issue pipeline is fully latency-hidden. 24 warps corresponds to
	// 37.5% occupancy on Kepler and 50% on Fermi.
	warpsToSaturate = 24

	// l2MissRate is the fraction of read-only cached model traffic
	// that reaches DRAM (the model tables fit in the K40's 1.5 MB L2).
	l2MissRate = 0.1

	// launchOverheadSec is the fixed cost of one kernel launch.
	launchOverheadSec = 20e-6
)
