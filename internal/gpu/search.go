package gpu

import (
	"math"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

// Searcher runs the accelerated filters on one device.
type Searcher struct {
	Dev *simt.Device
	// Mem selects the model-parameter memory configuration
	// (MemAuto by default).
	Mem MemConfig
	// DisablePacking turns residue packing off (one byte-per-residue
	// global fetch per DP row) — the packing ablation.
	DisablePacking bool
	// EagerLazyF disables the warp-vote early exit of the parallel
	// Lazy-F, running the worst-case D-D loop on every chunk — the
	// lazy-evaluation ablation.
	EagerLazyF bool
	// DDScan resolves the D-D chain with the §VI prefix-scan extension
	// (5 shuffle rounds per chunk) instead of the vote loop. Requires
	// warp shuffle; ignored on Fermi devices.
	DDScan bool
	// DetectRaces enables the simulator's shared-memory race tracker.
	DetectRaces bool
	// HostWorkers caps host-side parallelism (0 = GOMAXPROCS).
	HostWorkers int
	// Trace, when non-nil, parents a kernel span per launch on the
	// device's track. Callers running one stage at a time (the
	// pipeline engines, the per-device stream workers) repoint it at
	// the current stage span before each search.
	Trace *obs.Span
	// Cancel, when non-nil, aborts in-flight launches once closed
	// (simt.LaunchConfig.Cancel): searches then fail with
	// simt.ErrLaunchCanceled. Context-aware callers set this to
	// ctx.Done() so a deadline interrupts a running kernel between
	// blocks.
	Cancel <-chan struct{}
}

// LazyFStats aggregates the parallel Lazy-F work over a launch.
type LazyFStats struct {
	// RowsIterated counts DP rows that needed at least one lazy-F
	// iteration beyond the initial M-D seeding.
	RowsIterated int64
	// Iterations is the total lazy-F iteration count.
	Iterations int64
}

// SearchReport is the outcome of one accelerated database pass.
type SearchReport struct {
	// Results holds the per-sequence filter scores in database order.
	Results []cpu.FilterResult
	// Plan is the launch configuration that ran.
	Plan LaunchPlan
	// Launch carries the simulator's counters and occupancy.
	Launch *simt.LaunchReport
	// LazyF is populated by Viterbi searches.
	LazyF LazyFStats
}

// applyReadbackFaults lands the device's pending silent readback
// flips in the per-sequence result buffer (one 64-bit score word per
// sequence). On a healthy or ECC device this is a no-op.
func applyReadbackFaults(dev *simt.Device, out []cpu.FilterResult) {
	for _, f := range dev.ReadbackFaults(len(out)) {
		if f.Word < 0 || f.Word >= len(out) {
			continue
		}
		r := &out[f.Word]
		r.Score = math.Float64frombits(math.Float64bits(r.Score) ^ 1<<f.Bit)
	}
}

// MSVSearch scores every sequence of db with the MSV kernel.
func (s *Searcher) MSVSearch(dp *DeviceMSVProfile, db *DeviceDB) (*SearchReport, error) {
	plan, err := planLaunch(s.Dev.Spec, kindMSV, dp.MP.M, s.Mem)
	if err != nil {
		return nil, err
	}
	run := &msvRun{
		db:     db,
		prof:   dp,
		plan:   plan,
		packed: !s.DisablePacking,
		out:    make([]cpu.FilterResult, len(db.Packed)),
	}
	return s.launch(plan, msvRegsPerThread, "msv", run.kernel, run.out)
}

// ViterbiSearch scores every sequence of db with the P7Viterbi kernel.
func (s *Searcher) ViterbiSearch(dp *DeviceVitProfile, db *DeviceDB) (*SearchReport, error) {
	plan, err := planLaunch(s.Dev.Spec, kindVit, dp.VP.M, s.Mem)
	if err != nil {
		return nil, err
	}
	run := &vitRun{
		db:     db,
		prof:   dp,
		plan:   plan,
		eager:  s.EagerLazyF,
		ddScan: s.DDScan && s.Dev.Spec.HasShuffle,
		out:    make([]cpu.FilterResult, len(db.Packed)),
	}
	if plan.RowsInGlobal {
		nWarps := plan.Blocks * plan.WarpsPerBlock
		run.rowAddr = s.Dev.AllocGlobal(int64(nWarps) * int64(6*(dp.VP.M+1)))
	}
	sr, err := s.launch(plan, vitRegsPerThread, "p7viterbi", run.kernel, run.out)
	if err != nil {
		return nil, err
	}
	sr.LazyF = LazyFStats{RowsIterated: run.lazyRows.Load(), Iterations: run.lazyIters.Load()}
	return sr, nil
}

// launch runs one filter kernel over the grid plan describes, lands
// the device's readback faults in out, the kernel's per-sequence
// results, and reports the pass.
func (s *Searcher) launch(plan LaunchPlan, regs int, name string, kernel func(*simt.Warp),
	out []cpu.FilterResult) (*SearchReport, error) {
	rep, err := s.Dev.Launch(simt.LaunchConfig{
		Blocks:              plan.Blocks,
		WarpsPerBlock:       plan.WarpsPerBlock,
		SharedBytesPerBlock: plan.SharedPerBlock,
		RegsPerThread:       regs,
		DetectRaces:         s.DetectRaces,
		HostWorkers:         s.HostWorkers,
		Name:                name,
		Trace:               s.Trace,
		Cancel:              s.Cancel,
	}, kernel)
	if err != nil {
		return nil, err
	}
	applyReadbackFaults(s.Dev, out)
	return &SearchReport{Results: out, Plan: plan, Launch: rep}, nil
}
