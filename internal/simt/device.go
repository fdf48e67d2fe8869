package simt

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"hmmer3gpu/internal/obs"
)

// ErrLaunchCanceled is returned by Launch when LaunchConfig.Cancel
// closes before the grid finishes: blocks stop being scheduled (an
// in-flight block completes first — the simulator's analogue of a real
// device draining its resident blocks) and the partial results are
// discarded by the caller.
var ErrLaunchCanceled = errors.New("simt: launch canceled")

// Device is one simulated GPU.
type Device struct {
	Spec DeviceSpec
	// Label names the device's timeline track in traces; NewSystem
	// assigns "device0".."deviceN-1".
	Label string
	// Faults, when non-nil, arbitrates every launch: the injector can
	// make Launch return typed fault errors on chosen launch ordinals
	// or probabilistically (see FaultInjector). Nil injects nothing.
	Faults *FaultInjector
	// Mode selects cycle-accurate accounting (the default) or fast
	// functional execution with accounting off; see Mode.
	Mode Mode
	// Profiler, when non-nil, receives a per-block counter profile of
	// every successful launch (see Profiler in profiler.go). Nil — the
	// default — collects nothing and costs one comparison per block.
	Profiler Profiler

	mu         sync.Mutex
	nextGlobal int64
}

// NewDevice creates a device with the given spec.
func NewDevice(spec DeviceSpec) *Device {
	return &Device{Spec: spec, Label: "device0"}
}

// Track returns the device's trace track name.
func (d *Device) Track() string {
	if d.Label == "" {
		return "device"
	}
	return d.Label
}

// AllocGlobal reserves a logical global-memory address range and
// returns its 128-byte-aligned base. The simulator meters traffic by
// address; data itself lives in ordinary Go buffers on the host side.
func (d *Device) AllocGlobal(size int64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.nextGlobal
	d.nextGlobal += (size + 127) &^ 127
	return base
}

// ReadbackFaults returns the silent bit flips to apply to a result
// buffer of n 64-bit words as it is read back from this device after
// a launch; callers XOR each flip into the corresponding word. On an
// ECC device the flips are corrected (and counted) instead, so the
// returned slice is nil. A device without a memory-fault injector
// always returns nil.
func (d *Device) ReadbackFaults(n int) []ReadbackFlip {
	if d.Faults == nil {
		return nil
	}
	return d.Faults.Mem.readbackFaults(n, d.Spec.ECC)
}

// LaunchConfig describes a kernel launch: the paper's geometry is a
// grid of Blocks, each holding WarpsPerBlock warps of 32 threads
// (blockDim.x = 32, blockDim.y = WarpsPerBlock).
type LaunchConfig struct {
	Blocks              int
	WarpsPerBlock       int
	SharedBytesPerBlock int
	// RegsPerThread is the kernel's register footprint, used by the
	// occupancy calculation.
	RegsPerThread int
	// Cooperative enables block barriers (Warp.Sync); the paper's
	// warp-synchronous kernels launch with Cooperative=false and can
	// never stall.
	Cooperative bool
	// DetectRaces turns on cross-warp shared-memory race tracking.
	DetectRaces bool
	// HostWorkers caps the number of host goroutines executing blocks;
	// 0 means GOMAXPROCS.
	HostWorkers int
	// Name labels the kernel in traces ("msv", "p7viterbi").
	Name string
	// Cancel, when non-nil, aborts the launch once closed: the grid
	// stops scheduling new blocks and Launch returns ErrLaunchCanceled
	// — the mid-kernel cancellation check that lets a context deadline
	// interrupt a long launch between blocks instead of waiting for
	// the whole grid.
	Cancel <-chan struct{}
	// Trace, when non-nil, parents a kernel span emitted on this
	// device's track, annotated with the launch geometry, occupancy,
	// and headline counters.
	Trace *obs.Span
}

// LaunchReport returns the aggregate counters and the occupancy
// achieved by a launch.
type LaunchReport struct {
	Stats     KernelStats
	Occupancy Occupancy
}

type blockRun struct {
	shared *SharedMem
	baton  *baton // nil unless the launch is cooperative
}

// blockCtx is one worker's reusable execution context: the shared
// memory, warp structs and stat accumulator are allocated once per
// worker and recycled across every block the worker claims, so the
// per-block cost is a reset instead of an allocation burst.
type blockCtx struct {
	run   blockRun
	warps []Warp
	stats KernelStats
	// samples accumulates this worker's profiled blocks when the
	// device has a Profiler attached (nil otherwise).
	samples []BlockProfile
}

// Launch executes kernel over the grid and aggregates statistics
// deterministically (warp order within block, block order within
// grid), regardless of host scheduling.
func (d *Device) Launch(cfg LaunchConfig, kernel func(*Warp)) (*LaunchReport, error) {
	spec := d.Spec
	if cfg.Blocks < 1 || cfg.WarpsPerBlock < 1 {
		return nil, fmt.Errorf("simt: launch geometry %dx%d invalid", cfg.Blocks, cfg.WarpsPerBlock)
	}
	if threads := cfg.WarpsPerBlock * spec.WarpSize; threads > spec.MaxThreadsPerBlock {
		return nil, fmt.Errorf("simt: %d threads per block exceeds device limit %d", threads, spec.MaxThreadsPerBlock)
	}
	if cfg.SharedBytesPerBlock > spec.SharedMemPerBlockMax {
		return nil, fmt.Errorf("simt: %d bytes shared per block exceeds device limit %d",
			cfg.SharedBytesPerBlock, spec.SharedMemPerBlockMax)
	}
	occ := spec.CalcOccupancy(KernelResources{
		RegsPerThread:   cfg.RegsPerThread,
		SharedPerBlock:  cfg.SharedBytesPerBlock,
		ThreadsPerBlock: cfg.WarpsPerBlock * spec.WarpSize,
	})
	if occ.BlocksPerSM == 0 {
		return nil, fmt.Errorf("simt: kernel resources exceed SM capacity (limiter %q)", occ.Limiter)
	}

	kname := cfg.Name
	if kname == "" {
		kname = "kernel"
	} else {
		kname = "kernel:" + kname
	}
	span := cfg.Trace.ChildOn(d.Track(), kname,
		obs.Int("blocks", int64(cfg.Blocks)),
		obs.Int("warps_per_block", int64(cfg.WarpsPerBlock)),
		obs.Int("shared_bytes_per_block", int64(cfg.SharedBytesPerBlock)),
		obs.Float("occupancy", occ.Fraction),
		obs.String("occupancy_limiter", occ.Limiter),
		obs.String("sim_mode", d.Mode.String()))

	if err := d.Faults.onLaunch(d.Track()); err != nil {
		span.Annotate(obs.Bool("fault_injected", true), obs.String("error", err.Error()))
		span.End()
		return nil, err
	}

	// Silent corruption: draw this launch's shared-memory flips once,
	// up front, so the applied faults are deterministic regardless of
	// how the host schedules the blocks below.
	memPlan := d.Faults.memPlan(spec.ECC, cfg.SharedBytesPerBlock, cfg.Blocks)

	// Whether the launch records accounting: off in fast mode, so every
	// warp operation's accounting collapses to one predictable branch.
	costed := d.Mode != ModeFast

	// Profiling stride: 0 disables collection entirely (the common
	// case), 1 profiles every block (always in cycle mode), and a
	// fast-mode profiler may thin collection to every Nth block.
	prof := d.Profiler
	stride := 0
	if prof != nil {
		stride = 1
		if !costed {
			if s := prof.SamplePeriod(); s > 1 {
				stride = s
			}
		}
	}

	workers := cfg.HostWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Blocks {
		workers = cfg.Blocks
	}

	// A panic in a kernel is recovered into a *KernelPanicError rather
	// than killing the process: the first panicking warp wins, the rest
	// of its block unwinds (a cooperative block's baton breaks, so warps
	// parked in __syncthreads re-panic with barrierBroken, which is
	// swallowed), and remaining blocks are skipped.
	var panicked atomic.Bool
	var panicMu sync.Mutex
	var panicErr *KernelPanicError

	capture := func(block int, r any) {
		kp := &KernelPanicError{
			Device: d.Track(),
			Spec:   spec.Name,
			Kernel: cfg.Name,
			Block:  block,
			Warp:   -1,
			Value:  r,
			Stack:  string(debug.Stack()),
		}
		if kf, ok := r.(*kernelFault); ok {
			kp.Block, kp.Warp, kp.Op, kp.Value = kf.block, kf.warp, kf.op, kf.msg
		}
		panicMu.Lock()
		if panicErr == nil {
			panicErr = kp
		}
		panicMu.Unlock()
		panicked.Store(true)
	}

	newCtx := func() *blockCtx {
		bc := &blockCtx{
			run:   blockRun{shared: newSharedMem(cfg.SharedBytesPerBlock, cfg.DetectRaces)},
			warps: make([]Warp, cfg.WarpsPerBlock),
		}
		if cfg.Cooperative {
			bc.run.baton = newBaton(cfg.WarpsPerBlock)
		}
		return bc
	}

	// runWarp is shared by every block a worker claims; it captures
	// only launch-lifetime state so the per-block path allocates
	// nothing (a closure per block would cost one heap object each).
	runWarp := func(w *Warp, br *blockRun, b int) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(barrierBroken); ok {
					return
				}
				capture(b, r)
				if br.baton != nil {
					br.baton.broken = true
				}
			}
		}()
		kernel(w)
	}

	// coopWarp runs one warp of a cooperative block once it holds the
	// baton.
	coopWarp := func(w *Warp, br *blockRun, b int) {
		bt := br.baton
		<-bt.turn[w.WarpInBlock]
		if !bt.broken {
			runWarp(w, br, b)
		}
		bt.returned[w.WarpInBlock] = true
		bt.pass(w.WarpInBlock, br.shared)
	}

	runBlock := func(bc *blockCtx, b int) {
		var faults map[int]byte
		if memPlan != nil {
			faults = memPlan.shared[b]
		}
		br := &bc.run
		br.shared.reset(faults)
		// Fast-mode sampling: a sampled block runs with full cycle
		// accounting. Accounting is pure bookkeeping — data movement,
		// faults and races are identical — so results stay
		// byte-identical to an unprofiled fast run.
		sampled := stride > 0 && b%stride == 0
		for wi := range bc.warps {
			bc.warps[wi] = Warp{
				BlockIdx:      b,
				WarpInBlock:   wi,
				NumBlocks:     cfg.Blocks,
				WarpsPerBlock: cfg.WarpsPerBlock,
				dev:           d,
				block:         br,
				costed:        costed || sampled,
			}
		}
		if bt := br.baton; bt != nil {
			clear(bt.returned)
			bt.broken = false
			for wi := 1; wi < len(bc.warps); wi++ {
				go coopWarp(&bc.warps[wi], br, b)
			}
			bt.turn[0] <- struct{}{}
			coopWarp(&bc.warps[0], br, b)
			<-bt.done
		} else {
			for wi := range bc.warps {
				runWarp(&bc.warps[wi], br, b)
				if panicked.Load() {
					break
				}
			}
		}
		if sampled {
			var bs KernelStats
			for wi := range bc.warps {
				w := &bc.warps[wi]
				w.stats.WarpsExecuted = 1
				bs.Add(&w.stats)
			}
			bs.SharedRaces += br.shared.races
			bc.stats.Add(&bs)
			bc.samples = append(bc.samples, BlockProfile{Block: b, Stats: bs})
			return
		}
		for wi := range bc.warps {
			w := &bc.warps[wi]
			w.stats.WarpsExecuted = 1
			bc.stats.Add(&w.stats)
		}
		bc.stats.SharedRaces += br.shared.races
	}

	// Cancellation is polled between blocks, so an in-flight block runs
	// to completion but the rest of the grid is abandoned. canceled is
	// sticky: once observed, the launch fails even if the grid happened
	// to drain concurrently.
	var canceled atomic.Bool
	cancelRequested := func() bool {
		if cfg.Cancel == nil {
			return false
		}
		select {
		case <-cfg.Cancel:
			canceled.Store(true)
			return true
		default:
			return false
		}
	}

	// Block scheduling is a single atomic claim counter: workers pull
	// the next block index lock-free and only ever park while a
	// cooperative block's baton is with another warp — there is no
	// scheduler mutex. Worker contexts are collected for the
	// deterministic stat sum (integer addition, so claim order cannot
	// change the totals).
	var next atomic.Int64
	var ctxMu sync.Mutex
	var ctxs []*blockCtx

	workerLoop := func(bc *blockCtx) {
		for {
			b := int(next.Add(1) - 1)
			if b >= cfg.Blocks || panicked.Load() || cancelRequested() {
				return
			}
			runBlock(bc, b)
			// The block loop has no natural yield points (the per-warp
			// goroutine design it replaced yielded constantly), so on a
			// GOMAXPROCS=1 host a launch could starve concurrent device
			// workers and cancellation senders for its whole duration.
			// One yield per block keeps multi-device interleaving fair.
			runtime.Gosched()
		}
	}

	if workers <= 1 {
		bc := newCtx()
		workerLoop(bc)
		ctxs = append(ctxs, bc)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer wg.Done()
				bc := newCtx()
				workerLoop(bc)
				ctxMu.Lock()
				ctxs = append(ctxs, bc)
				ctxMu.Unlock()
			}()
		}
		wg.Wait()
	}

	if panicErr != nil {
		span.Annotate(obs.String("error", panicErr.Error()))
		span.End()
		return nil, panicErr
	}
	if canceled.Load() {
		span.Annotate(obs.String("error", ErrLaunchCanceled.Error()))
		span.End()
		return nil, fmt.Errorf("simt: %s kernel on %s: %w", cfg.Name, d.Track(), ErrLaunchCanceled)
	}

	rep := &LaunchReport{Occupancy: occ}
	var samples []BlockProfile
	for _, bc := range ctxs {
		rep.Stats.Add(&bc.stats)
		if prof != nil {
			samples = append(samples, bc.samples...)
		}
	}
	if prof != nil {
		sort.Slice(samples, func(i, j int) bool { return samples[i].Block < samples[j].Block })
		prof.OnLaunch(&LaunchProfile{
			Kernel:              cfg.Name,
			Device:              d.Track(),
			Spec:                spec,
			Mode:                d.Mode,
			Blocks:              cfg.Blocks,
			WarpsPerBlock:       cfg.WarpsPerBlock,
			SharedBytesPerBlock: cfg.SharedBytesPerBlock,
			RegsPerThread:       cfg.RegsPerThread,
			Occupancy:           occ,
			SamplePeriod:        stride,
			Samples:             samples,
		})
	}
	span.Annotate(
		obs.Int("warps_executed", rep.Stats.WarpsExecuted),
		obs.Int("issue_cycles", rep.Stats.IssueCycles),
		obs.Int("global_bytes", rep.Stats.GlobalBytes),
		obs.Int("bank_conflict_replays", rep.Stats.BankConflictReplays),
		obs.Float("lane_utilization", rep.Stats.LaneUtilization()))
	span.End()
	return rep, nil
}

// baton runs a cooperative block's warps one at a time, in warp order
// between barriers. Each warp has its own goroutine and runs only while
// it holds the baton, which it hands on at Warp.Sync or on return. The
// last warp to arrive at a barrier completes it and hands the baton back
// to the first; a returned warp takes no part in later barriers. After a
// panic, broken is set: an unstarted warp skips the kernel and a parked
// one panics with barrierBroken. Hand-offs are channel sends, so the
// holder alone touches the block's shared memory and the baton.
type baton struct {
	turn     []chan struct{} // warp i runs once it receives on turn[i]
	done     chan struct{}   // the last warp has returned (buffered: it may be warp 0)
	returned []bool
	arrived  int64 // largest cyclesSinceSync of the warps at the barrier
	stall    int64 // arrived, as of the last completed barrier
	broken   bool
}

func newBaton(n int) *baton {
	bt := &baton{turn: make([]chan struct{}, n), done: make(chan struct{}, 1), returned: make([]bool, n)}
	for i := range bt.turn {
		// Buffered: the worker hands warp 0 its first turn before
		// running it, and a lone warp hands the baton to itself.
		bt.turn[i] = make(chan struct{}, 1)
	}
	return bt
}

// pass hands the baton on from warp i, which has just reached the
// barrier or returned: to the next warp that has not returned, else
// through the barrier to the first such warp, else to the block's
// claiming worker.
func (bt *baton) pass(i int, sm *SharedMem) {
	for j := i + 1; j < len(bt.turn); j++ {
		if !bt.returned[j] {
			bt.turn[j] <- struct{}{}
			return
		}
	}
	for j := 0; j <= i; j++ {
		if !bt.returned[j] {
			bt.stall, bt.arrived = bt.arrived, 0
			sm.advanceEpoch()
			bt.turn[j] <- struct{}{}
			return
		}
	}
	bt.done <- struct{}{}
}
