package simt

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// LaunchTimeout is the per-launch deadline: a grid that has not
	// completed within it makes Launch return ErrDeviceHung (the
	// abandoned grid finishes on leaked goroutines whose results are
	// discarded). 0 disables the watchdog.
	LaunchTimeout time.Duration
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
	shared  *SharedMem
	barrier *blockBarrier
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
	// than killing the process: the first panicking warp wins, its
	// block's barrier is poisoned so sibling warps parked in
	// __syncthreads unblock (they re-panic with barrierBroken, which is
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

	// concurrent: only a cooperative multi-warp block runs its warps on
	// separate goroutines (they must all make progress to reach the
	// barrier); warp-synchronous blocks — the paper's kernels — run
	// their warps serially on the claiming worker with no locking.
	concurrent := cfg.Cooperative && cfg.WarpsPerBlock > 1

	newCtx := func() *blockCtx {
		return &blockCtx{
			run: blockRun{
				shared: newSharedMem(cfg.SharedBytesPerBlock, cfg.DetectRaces),
			},
			warps: make([]Warp, cfg.WarpsPerBlock),
		}
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
				if br.barrier != nil {
					br.barrier.poison()
				}
			}
		}()
		kernel(w)
	}

	runBlock := func(bc *blockCtx, b int) {
		var faults map[int]byte
		if memPlan != nil {
			faults = memPlan.shared[b]
		}
		br := &bc.run
		br.shared.reset(faults, concurrent)
		br.barrier = nil
		if cfg.Cooperative {
			// A one-warp cooperative block syncs trivially (n=1).
			br.barrier = newBlockBarrier(cfg.WarpsPerBlock)
		}
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
		if concurrent {
			var wg sync.WaitGroup
			wg.Add(len(bc.warps) - 1)
			for wi := 1; wi < len(bc.warps); wi++ {
				go func(w *Warp) {
					defer wg.Done()
					runWarp(w, br, b)
				}(&bc.warps[wi])
			}
			runWarp(&bc.warps[0], br, b)
			wg.Wait()
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
	// the next block index lock-free and only ever park at a true sync
	// point (a cooperative block barrier) — there is no per-warp
	// goroutine ping-pong and no scheduler mutex. Worker contexts are
	// collected for the deterministic stat sum (integer addition, so
	// claim order cannot change the totals).
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

	runGrid := func() {
		if workers <= 1 {
			bc := newCtx()
			workerLoop(bc)
			ctxMu.Lock()
			ctxs = append(ctxs, bc)
			ctxMu.Unlock()
			return
		}
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

	if d.LaunchTimeout > 0 {
		done := make(chan struct{})
		go func() {
			runGrid()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(d.LaunchTimeout):
			// The grid keeps running on leaked goroutines; its stats are
			// never read (the report below is not built on this path).
			err := &FaultError{Device: d.Track(), Ordinal: -1, Err: ErrDeviceHung}
			span.Annotate(obs.String("error", err.Error()))
			span.End()
			return nil, err
		}
	} else {
		runGrid()
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
	ctxMu.Lock()
	var samples []BlockProfile
	for _, bc := range ctxs {
		rep.Stats.Add(&bc.stats)
		if prof != nil {
			samples = append(samples, bc.samples...)
		}
	}
	ctxMu.Unlock()
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

// blockBarrier is the two-phase __syncthreads implementation: phase
// one gathers per-warp cycle counts and computes the block maximum
// (for stall modelling), phase two releases the warps after the
// epoch bookkeeping.
type blockBarrier struct {
	p1, p2 *phaseBarrier
}

func newBlockBarrier(n int) *blockBarrier {
	return &blockBarrier{p1: newPhaseBarrier(n), p2: newPhaseBarrier(n)}
}

func (b *blockBarrier) wait(cycles int64) int64 { return b.p1.wait(cycles) }
func (b *blockBarrier) release()                { b.p2.wait(0) }

// poison breaks both phases so warps parked in (or arriving at) the
// barrier panic with barrierBroken instead of waiting forever for a
// sibling that has already panicked.
func (b *blockBarrier) poison() {
	b.p1.breakBarrier()
	b.p2.breakBarrier()
}

// phaseBarrier is event-driven: the last arriver swaps in a fresh
// generation channel and closes the old one, waking every parked warp
// with a single close instead of a broadcast-and-recheck loop. Warps
// therefore park exactly once per barrier (a true sync point) and
// never spin on a condition variable.
type phaseBarrier struct {
	mu      sync.Mutex
	n       int
	count   int
	agg     int64
	result  int64
	release chan struct{}
	broken  atomic.Bool
}

func newPhaseBarrier(n int) *phaseBarrier {
	return &phaseBarrier{n: n, release: make(chan struct{})}
}

// wait blocks until all n participants have arrived and returns the
// maximum of the submitted values. A broken barrier panics with
// barrierBroken (recovered and swallowed by the launch).
//
// Waiters read b.result without the lock after waking: the two-phase
// barrier protocol guarantees the next generation cannot overwrite it
// until every waiter of this generation has re-arrived at the second
// phase, which orders the read before the write.
func (b *phaseBarrier) wait(val int64) int64 {
	b.mu.Lock()
	if b.broken.Load() {
		b.mu.Unlock()
		panic(barrierBroken{})
	}
	if val > b.agg {
		b.agg = val
	}
	b.count++
	if b.count == b.n {
		res := b.agg
		b.result = res
		b.agg = 0
		b.count = 0
		ch := b.release
		b.release = make(chan struct{})
		b.mu.Unlock()
		close(ch)
		return res
	}
	ch := b.release
	b.mu.Unlock()
	<-ch
	if b.broken.Load() {
		panic(barrierBroken{})
	}
	return b.result
}

// breakBarrier marks the barrier broken and wakes every waiter. The
// current generation channel is swapped out under the lock before
// closing, so a concurrent normal release can never double-close it.
func (b *phaseBarrier) breakBarrier() {
	b.broken.Store(true)
	b.mu.Lock()
	ch := b.release
	b.release = make(chan struct{})
	b.mu.Unlock()
	close(ch)
}
