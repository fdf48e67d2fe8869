package simt

// The profiler seam: a Device with a non-nil Profiler hands every
// successful launch a LaunchProfile of per-block counter deltas. The
// hook follows the package's no-cost-when-off discipline (like an
// uncosted warp and the obs nil receivers): with Profiler nil the
// launch path performs exactly one extra comparison per block and
// allocates nothing.
//
// Mode interaction:
//   - ModeCycleAccurate: every block is profiled (SamplePeriod 1);
//     the per-block deltas partition the launch's aggregate stats.
//   - ModeFast: only blocks with index % SamplePeriod() == 0 are
//     profiled. A sampled block runs with cycle-accurate accounting
//     — pure bookkeeping, so results stay byte-identical — while
//     unsampled blocks keep accounting off and its zero
//     per-operation overhead. The sampled blocks'
//     counters also flow into LaunchReport.Stats, so a fast-mode
//     report is no longer all-zero when a profiler is attached.
//
// Consumers (internal/kernprof) scale sampled counters back up by the
// period; WarpsExecuted needs no scaling because the launch geometry
// fixes it exactly.

// BlockProfile is one profiled block's aggregate counter delta (all
// of the block's warps summed, plus its shared-memory race count).
type BlockProfile struct {
	Block int
	Stats KernelStats
}

// LaunchProfile is the raw collection handed to Profiler.OnLaunch
// after a successful launch: geometry, predicted occupancy, and the
// profiled blocks in ascending block order. The struct and its slice
// are owned by the receiver after the call.
type LaunchProfile struct {
	// Kernel is LaunchConfig.Name ("msv", "p7viterbi", ...; may be
	// empty for anonymous launches).
	Kernel string
	// Device is the device's trace track ("device0", ...).
	Device string
	// Spec is the device specification the launch ran on.
	Spec DeviceSpec
	// Mode is the simulation mode the launch executed under.
	Mode Mode

	// Launch geometry.
	Blocks              int
	WarpsPerBlock       int
	SharedBytesPerBlock int
	RegsPerThread       int

	// Occupancy is the resource-arithmetic prediction Launch computed
	// (the theoretical occupancy of internal/perf's model).
	Occupancy Occupancy

	// SamplePeriod is the block-sampling stride used: 1 in cycle mode,
	// Profiler.SamplePeriod() in fast mode.
	SamplePeriod int

	// Samples holds the profiled blocks, sorted by block index.
	Samples []BlockProfile
}

// Profiler receives per-launch profiles from a Device. Implementations
// must be safe for concurrent use: a multi-device system delivers
// profiles from several launch goroutines.
type Profiler interface {
	// SamplePeriod returns the block-sampling stride for fast-mode
	// launches (values < 1 are treated as 1: profile every block).
	// Cycle-accurate launches always profile every block.
	SamplePeriod() int
	// OnLaunch delivers one completed launch's profile. Failed
	// launches (faults, panics, cancellation) deliver nothing.
	OnLaunch(p *LaunchProfile)
}
