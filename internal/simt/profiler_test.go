package simt

import (
	"sync"
	"testing"
)

// captureProfiler is a minimal Profiler recording every delivery.
type captureProfiler struct {
	mu       sync.Mutex
	period   int
	profiles []*LaunchProfile
}

func (c *captureProfiler) SamplePeriod() int { return c.period }
func (c *captureProfiler) OnLaunch(p *LaunchProfile) {
	c.mu.Lock()
	c.profiles = append(c.profiles, p)
	c.mu.Unlock()
}

func profKernel(w *Warp) {
	lanes := w.Lanes()
	words := make([]uint64, lanes/4)
	w.ALU(5)
	w.SharedSpanStoreWords(words, 0, lanes, 2)
	w.SharedSpanLoadWords(words, 0, lanes, 2)
	w.GlobalSpanLoad(0, 4, lanes)
	w.Vote()
}

// TestProfilerCycleModeCoversEveryBlock pins the cycle-mode contract:
// one sample per block, in block order, whose deltas sum exactly to
// the launch report's aggregate.
func TestProfilerCycleModeCoversEveryBlock(t *testing.T) {
	cp := &captureProfiler{period: 4}
	dev := NewDevice(TeslaK40())
	dev.Profiler = cp
	const blocks, wpb = 6, 2
	rep, err := dev.Launch(LaunchConfig{
		Blocks: blocks, WarpsPerBlock: wpb, SharedBytesPerBlock: 1024, Name: "msv",
	}, profKernel)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.profiles) != 1 {
		t.Fatalf("got %d profiles, want 1", len(cp.profiles))
	}
	p := cp.profiles[0]
	if p.Kernel != "msv" || p.Mode != ModeCycleAccurate || p.Blocks != blocks || p.WarpsPerBlock != wpb {
		t.Errorf("profile header wrong: %+v", p)
	}
	if p.SamplePeriod != 1 {
		t.Errorf("cycle-mode sample period = %d, want 1 (every block)", p.SamplePeriod)
	}
	if len(p.Samples) != blocks {
		t.Fatalf("got %d samples, want %d", len(p.Samples), blocks)
	}
	var sum KernelStats
	for i, s := range p.Samples {
		if s.Block != i {
			t.Errorf("sample %d is for block %d, want ascending block order", i, s.Block)
		}
		if s.Stats.WarpsExecuted != wpb {
			t.Errorf("block %d warps = %d, want %d", s.Block, s.Stats.WarpsExecuted, wpb)
		}
		sum.Add(&s.Stats)
	}
	if sum != rep.Stats {
		t.Errorf("per-block deltas do not partition the aggregate:\n  sum: %v\n  rep: %v", &sum, &rep.Stats)
	}
	if p.Occupancy != rep.Occupancy {
		t.Errorf("profile occupancy %+v != report occupancy %+v", p.Occupancy, rep.Occupancy)
	}
}

// TestProfilerFastModeSamples pins fast-mode sampling: every Nth block
// carries real cycle counters, results stay functional, and the
// report aggregate contains exactly the sampled blocks' accounting.
func TestProfilerFastModeSamples(t *testing.T) {
	cp := &captureProfiler{period: 4}
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	dev.Profiler = cp
	const blocks, wpb = 10, 2
	rep, err := dev.Launch(LaunchConfig{
		Blocks: blocks, WarpsPerBlock: wpb, SharedBytesPerBlock: 1024, Name: "msv",
	}, profKernel)
	if err != nil {
		t.Fatal(err)
	}
	p := cp.profiles[0]
	if p.SamplePeriod != 4 {
		t.Errorf("sample period = %d, want 4", p.SamplePeriod)
	}
	wantBlocks := []int{0, 4, 8}
	if len(p.Samples) != len(wantBlocks) {
		t.Fatalf("got %d samples, want %d", len(p.Samples), len(wantBlocks))
	}
	var sum KernelStats
	for i, s := range p.Samples {
		if s.Block != wantBlocks[i] {
			t.Errorf("sample %d is block %d, want %d", i, s.Block, wantBlocks[i])
		}
		if s.Stats.IssueCycles == 0 || s.Stats.ALUOps == 0 {
			t.Errorf("sampled block %d has no cycle accounting: %v", s.Block, &s.Stats)
		}
		sum.Add(&s.Stats)
	}
	// The aggregate = sampled accounting + one WarpsExecuted per
	// unsampled warp.
	want := sum
	want.WarpsExecuted = blocks * wpb
	if rep.Stats != want {
		t.Errorf("fast+profiled aggregate:\n  got  %v\n  want %v", &rep.Stats, &want)
	}
}

// TestProfilerSamplePeriodFloor: a period below 1 profiles every
// block in fast mode rather than dividing by zero.
func TestProfilerSamplePeriodFloor(t *testing.T) {
	cp := &captureProfiler{period: 0}
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	dev.Profiler = cp
	_, err := dev.Launch(LaunchConfig{Blocks: 3, WarpsPerBlock: 1, SharedBytesPerBlock: 1024}, profKernel)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cp.profiles[0].Samples); got != 3 {
		t.Errorf("period 0: %d samples, want 3 (every block)", got)
	}
}

// TestProfilerNotCalledOnFailedLaunch: a launch that panics delivers
// no profile.
func TestProfilerNotCalledOnFailedLaunch(t *testing.T) {
	cp := &captureProfiler{period: 1}
	dev := NewDevice(TeslaK40())
	dev.Profiler = cp
	_, err := dev.Launch(LaunchConfig{Blocks: 2, WarpsPerBlock: 1, SharedBytesPerBlock: 64},
		func(w *Warp) { panic("boom") })
	if err == nil {
		t.Fatal("want panic error")
	}
	if len(cp.profiles) != 0 {
		t.Errorf("failed launch delivered %d profiles, want 0", len(cp.profiles))
	}
}

// TestDisabledProfilingFastModeUnchanged pins that a nil Profiler
// leaves the fast-mode contract exactly as before: stats are
// WarpsExecuted only.
func TestDisabledProfilingFastModeUnchanged(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	const blocks, wpb = 4, 2
	rep, err := dev.Launch(LaunchConfig{
		Blocks: blocks, WarpsPerBlock: wpb, SharedBytesPerBlock: 1024,
	}, profKernel)
	if err != nil {
		t.Fatal(err)
	}
	want := KernelStats{WarpsExecuted: blocks * wpb}
	if rep.Stats != want {
		t.Errorf("stats = %v, want %v", &rep.Stats, &want)
	}
}

// launchAllocs measures allocations per fast-mode launch on a
// single-worker device with no profiler attached.
func launchAllocs(t *testing.T, blocks int) float64 {
	t.Helper()
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	cfg := LaunchConfig{Blocks: blocks, WarpsPerBlock: 2, SharedBytesPerBlock: 256, HostWorkers: 1}
	kernel := func(w *Warp) {
		w.ALU(1)
		w.SharedSpanTouch(0, 4, w.Lanes(), false)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := dev.Launch(cfg, kernel); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDisabledProfilingAddsNoPerBlockAllocations proves the nil-
// Profiler path allocates nothing per block: growing the grid 16×
// must not grow the per-launch allocation count (the fixed per-launch
// overhead is worker contexts, not block work).
func TestDisabledProfilingAddsNoPerBlockAllocations(t *testing.T) {
	small := launchAllocs(t, 2)
	large := launchAllocs(t, 32)
	if large > small {
		t.Errorf("allocations grew with block count: %g for 2 blocks vs %g for 32 — the disabled-profiler block path must be allocation-free", small, large)
	}
}

func benchLaunch(b *testing.B, prof Profiler) {
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	dev.Profiler = prof
	cfg := LaunchConfig{Blocks: 30, WarpsPerBlock: 4, SharedBytesPerBlock: 1024, HostWorkers: 1}
	kernel := func(w *Warp) {
		lanes := w.Lanes()
		words := make([]uint64, lanes/4)
		for i := 0; i < 64; i++ {
			w.ALU(3)
			w.SharedSpanStoreWords(words, 0, lanes, 2)
			w.SharedSpanLoadWords(words, 0, lanes, 2)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Launch(cfg, kernel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastLaunchProfilerOff / ...On bound the cost of the
// profiling seam on the fast path; Off is what the benchmark's
// simt.launch_overhead_us.fast rung times.
func BenchmarkFastLaunchProfilerOff(b *testing.B) { benchLaunch(b, nil) }
func BenchmarkFastLaunchProfilerOn(b *testing.B) {
	benchLaunch(b, &captureProfiler{period: 8})
}
