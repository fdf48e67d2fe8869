package simt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestOccupancyHandTable checks the occupancy calculator against
// hand-computed CUDA occupancy values.
func TestOccupancyHandTable(t *testing.T) {
	k40 := TeslaK40()
	cases := []struct {
		name       string
		r          KernelResources
		wantBlocks int
		wantWarps  int
		wantLim    string
	}{
		// 128 threads (4 warps), 32 regs/thread, no shared:
		// regs/block = 4*32*32=4096 -> 16 blocks by regs, byWarps=16,
		// byBlocks=16 -> 16 blocks * 4 warps = 64 warps = 100%.
		{"full", KernelResources{32, 0, 128}, 16, 64, "warps"},
		// 64 regs/thread halves it: regs/block = 8192 -> 8 blocks ->
		// 32 warps = 50% (the paper's Viterbi register ceiling).
		{"reg-limited", KernelResources{64, 0, 128}, 8, 32, "registers"},
		// 24KB shared per block -> 2 blocks by shared -> 8 warps.
		{"shared-limited", KernelResources{32, 24 * 1024, 128}, 2, 8, "shared"},
		// 1024 threads/block (32 warps): byWarps = 2.
		{"big-block", KernelResources{32, 0, 1024}, 2, 64, "warps"},
	}
	for _, c := range cases {
		occ := k40.CalcOccupancy(c.r)
		if occ.BlocksPerSM != c.wantBlocks || occ.WarpsPerSM != c.wantWarps {
			t.Errorf("%s: got %d blocks / %d warps, want %d / %d",
				c.name, occ.BlocksPerSM, occ.WarpsPerSM, c.wantBlocks, c.wantWarps)
		}
		if occ.Limiter != c.wantLim {
			t.Errorf("%s: limiter %q, want %q", c.name, occ.Limiter, c.wantLim)
		}
	}
}

func TestOccupancyFermiVsKepler(t *testing.T) {
	// The same 64-reg kernel achieves lower occupancy on Fermi (32K
	// registers vs 64K) — the effect the paper reports in §IV-A.
	r := KernelResources{RegsPerThread: 63, SharedPerBlock: 4096, ThreadsPerBlock: 128}
	k := TeslaK40().CalcOccupancy(r)
	f := GTX580().CalcOccupancy(r)
	if f.Fraction >= k.Fraction {
		t.Errorf("Fermi occupancy %.2f should trail Kepler %.2f for a register-heavy kernel",
			f.Fraction, k.Fraction)
	}
}

func TestOccupancyImpossibleKernel(t *testing.T) {
	occ := TeslaK40().CalcOccupancy(KernelResources{32, 64 * 1024, 128})
	if occ.BlocksPerSM != 0 || occ.Limiter != "none" {
		t.Errorf("64KB shared should not fit: %+v", occ)
	}
}

func TestLaunchValidation(t *testing.T) {
	dev := NewDevice(TeslaK40())
	nop := func(w *Warp) {}
	if _, err := dev.Launch(LaunchConfig{Blocks: 0, WarpsPerBlock: 1}, nop); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 33}, nop); err == nil {
		t.Error("block over thread limit accepted")
	}
	if _, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 50 * 1024}, nop); err == nil {
		t.Error("oversize shared accepted")
	}
}

func TestLaunchCountsDeterministic(t *testing.T) {
	dev := NewDevice(TeslaK40())
	cfg := LaunchConfig{Blocks: 7, WarpsPerBlock: 3, SharedBytesPerBlock: 1024, RegsPerThread: 32}
	kernel := func(w *Warp) {
		w.ALU(10 + w.GlobalWarpID())
		buf := make([]uint8, 32)
		w.SharedSpanStoreU8(buf, 0, 32)
		w.SharedSpanLoadU8(buf, 0, 32)
	}
	var first KernelStats
	for trial := 0; trial < 3; trial++ {
		rep, err := dev.Launch(cfg, kernel)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = rep.Stats
			if first.WarpsExecuted != 21 {
				t.Fatalf("WarpsExecuted = %d, want 21", first.WarpsExecuted)
			}
			continue
		}
		if rep.Stats != first {
			t.Fatalf("trial %d stats differ: %+v vs %+v", trial, rep.Stats, first)
		}
	}
}

func TestSharedMemoryDataFlow(t *testing.T) {
	dev := NewDevice(TeslaK40())
	got := make([]uint8, 32)
	kernel := func(w *Warp) {
		vals := make([]uint8, 32)
		for l := 0; l < 32; l++ {
			vals[l] = uint8(l * 3)
		}
		w.SharedSpanStoreU8(vals, 0, 32)
		w.SharedSpanLoadU8(got, 0, 32)
	}
	if _, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 64}, kernel); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 32; l++ {
		if got[l] != uint8(l*3) {
			t.Fatalf("lane %d: got %d", l, got[l])
		}
	}
}

func TestSharedI16RoundTrip(t *testing.T) {
	dev := NewDevice(TeslaK40())
	var got [32]int16
	kernel := func(w *Warp) {
		vals := make([]int16, 32)
		for l := 0; l < 32; l++ {
			vals[l] = int16(-1000 + l*100)
		}
		w.SharedSpanStoreI16(vals, 0, 32)
		w.SharedSpanLoadI16(got[:], 0, 32)
	}
	if _, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 64}, kernel); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 32; l++ {
		if got[l] != int16(-1000+l*100) {
			t.Fatalf("lane %d: got %d", l, got[l])
		}
	}
}

func TestCoalescingTransactions(t *testing.T) {
	cases := []struct {
		name string
		load func(w *Warp)
		want int64
	}{
		{"sequential-int", func(w *Warp) { w.GlobalSpanLoad(0, 4, 32) }, 1},
		{"same-address", func(w *Warp) { w.GlobalBroadcastLoad(512, 4) }, 1},
		{"two-segments", func(w *Warp) { w.GlobalSpanLoad(0, 8, 32) }, 2},
	}
	for _, c := range cases {
		rep, err := NewDevice(TeslaK40()).Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, c.load)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Stats.GlobalLoadTransactions; got != c.want {
			t.Errorf("%s: %d transactions, want %d", c.name, got, c.want)
		}
	}
}

// TestShufflePanicsOnFermi: a shuffle is an illegal instruction on a
// device without shuffle.
func TestShufflePanicsOnFermi(t *testing.T) {
	src, dst := make([]int32, 32), make([]int32, 32)
	dev := NewDevice(GTX580())
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, func(w *Warp) { w.ShflUpI32Into(dst, src, 1) })
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("shfl.up on Fermi: err = %v, want *KernelPanicError", err)
	}
	if kp.Op != "shfl.up" {
		t.Errorf("fault op = %q, want shfl.up", kp.Op)
	}
}

// TestVote: a vote and a shuffle each cost one instruction and one
// issue cycle, and move nothing else.
func TestVote(t *testing.T) {
	dev := NewDevice(TeslaK40())
	src, dst := make([]int32, 32), make([]int32, 32)
	rep, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, func(w *Warp) {
		w.Vote()
		w.Vote()
		w.ShflUpI32Into(dst, src, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := KernelStats{WarpsExecuted: 1, VoteOps: 2, ShuffleOps: 1, IssueCycles: 3}
	if rep.Stats != want {
		t.Errorf("stats = %+v, want %+v", rep.Stats, want)
	}
}

func TestSyncPanicsOutsideCooperative(t *testing.T) {
	dev := NewDevice(TeslaK40())
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 2}, func(w *Warp) { w.Sync() })
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("Sync in non-cooperative launch: err = %v, want *KernelPanicError", err)
	}
	if kp.Op != "__syncthreads" {
		t.Errorf("fault op = %q, want __syncthreads", kp.Op)
	}
}

func TestCooperativeBarrierOrdersWrites(t *testing.T) {
	dev := NewDevice(TeslaK40())
	// Warp 0 writes, everyone syncs, warp 1 reads: must see the data,
	// and with races detection on, no race may be reported.
	var seen uint8
	kernel := func(w *Warp) {
		vals := make([]uint8, 32)
		if w.WarpInBlock == 0 {
			for l := range vals {
				vals[l] = 42
			}
			w.SharedSpanStoreU8(vals, 0, 32)
		}
		w.Sync()
		if w.WarpInBlock == 1 {
			w.SharedSpanLoadU8(vals, 0, 32)
			seen = vals[5]
		}
	}
	rep, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 2, SharedBytesPerBlock: 64,
		Cooperative: true, DetectRaces: true,
	}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Errorf("warp 1 read %d, want 42", seen)
	}
	if rep.Stats.SharedRaces != 0 {
		t.Errorf("synchronised access reported %d races", rep.Stats.SharedRaces)
	}
	if rep.Stats.Syncs != 2 {
		t.Errorf("Syncs = %d, want 2", rep.Stats.Syncs)
	}
}

func TestRaceDetectionFlagsUnsyncedAccess(t *testing.T) {
	dev := NewDevice(TeslaK40())
	// Two warps write the same shared word with no barrier — the
	// hazard of Figure 4 when the synchronisation calls are omitted.
	kernel := func(w *Warp) {
		w.SharedSpanStoreU8(make([]uint8, 32), 0, 32)
	}
	rep, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 2, SharedBytesPerBlock: 64,
		Cooperative: true, DetectRaces: true,
	}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SharedRaces == 0 {
		t.Error("unsynchronised cross-warp writes were not flagged")
	}
}

func TestAllocGlobalAligned(t *testing.T) {
	dev := NewDevice(TeslaK40())
	a := dev.AllocGlobal(100)
	b := dev.AllocGlobal(100)
	if a%128 != 0 || b%128 != 0 || b <= a {
		t.Errorf("allocations a=%d b=%d", a, b)
	}
}

func TestSystemLaunchAll(t *testing.T) {
	sys := NewSystem(GTX580(), 4)
	if len(sys.Devices) != 4 {
		t.Fatalf("devices = %d", len(sys.Devices))
	}
	var ran int32
	reports, err := sys.LaunchAll(func(i int, dev *Device) (*LaunchReport, error) {
		atomic.AddInt32(&ran, 1)
		return dev.Launch(LaunchConfig{Blocks: 2, WarpsPerBlock: 2}, func(w *Warp) {
			w.ALU(int(5 * (i + 1)))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 4 || len(reports) != 4 {
		t.Fatalf("ran=%d reports=%d", ran, len(reports))
	}
	for i, rep := range reports {
		want := int64(4 * 5 * (i + 1))
		if rep.Stats.ALUOps != want {
			t.Errorf("device %d: ALUOps = %d, want %d", i, rep.Stats.ALUOps, want)
		}
	}
}

func TestSyncStallModelling(t *testing.T) {
	dev := NewDevice(TeslaK40())
	kernel := func(w *Warp) {
		// Warp 1 does 100 extra cycles of work before the barrier;
		// warp 0 should be charged ~100 stall cycles.
		if w.WarpInBlock == 1 {
			w.ALU(100)
		}
		w.Sync()
	}
	rep, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 2, SharedBytesPerBlock: 64, Cooperative: true,
	}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SyncStallCycles != 100 {
		t.Errorf("SyncStallCycles = %d, want 100", rep.Stats.SyncStallCycles)
	}
}

// A warp that returns without reaching a barrier takes no part in it:
// the block's other warps still pass their barriers. Warp 1 of each
// 3-warp block returns at once; warps 0 and 2 issue 10 and 30 cycles
// and sync twice, so warp 0 stalls 20 cycles at the first barrier.
func TestReturnedWarpLeavesBarriers(t *testing.T) {
	dev := NewDevice(TeslaK40())
	done := make(chan *LaunchReport, 1)
	go func() {
		rep, err := dev.Launch(LaunchConfig{Blocks: 2, WarpsPerBlock: 3, Cooperative: true},
			func(w *Warp) {
				if w.WarpInBlock == 1 {
					return
				}
				w.ALU(10 * (w.WarpInBlock + 1))
				w.Sync()
				w.Sync()
			})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep == nil {
			return
		}
		if rep.Stats.Syncs != 8 || rep.Stats.SyncStallCycles != 40 {
			t.Errorf("Syncs = %d, SyncStallCycles = %d; want 8 and 40",
				rep.Stats.Syncs, rep.Stats.SyncStallCycles)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cooperative launch deadlocked on a warp that returned before the barrier")
	}
}

func TestOccupancyRegisterAllocationGranularity(t *testing.T) {
	// 33 regs/thread on Kepler: 33*32 = 1056 regs/warp rounds up to
	// 1280 with the 256-register allocation unit, so 4-warp blocks cost
	// 5120 regs -> 12 blocks by registers (48 warps), not 15.
	k40 := TeslaK40()
	occ := k40.CalcOccupancy(KernelResources{RegsPerThread: 33, ThreadsPerBlock: 128})
	if occ.BlocksPerSM != 12 || occ.WarpsPerSM != 48 {
		t.Errorf("granularity: got %d blocks / %d warps, want 12 / 48", occ.BlocksPerSM, occ.WarpsPerSM)
	}
}

func TestShflUpInto(t *testing.T) {
	dev := NewDevice(TeslaK40())
	var got [32]int32
	kernel := func(w *Warp) {
		src := make([]int32, 32)
		dst := make([]int32, 32)
		for l := range src {
			src[l] = int32(l * 10)
		}
		w.ShflUpI32Into(dst, src, 3)
		copy(got[:], dst)
	}
	if _, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, kernel); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 32; l++ {
		want := int32(l * 10)
		if l >= 3 {
			want = int32((l - 3) * 10)
		}
		if got[l] != want {
			t.Fatalf("lane %d: %d, want %d", l, got[l], want)
		}
	}
}

func TestStringers(t *testing.T) {
	var st KernelStats
	st.ALUOps = 5
	if got := st.String(); !contains(got, "alu_ops=5") {
		t.Errorf("KernelStats.String() = %q", got)
	}
	occ := Occupancy{BlocksPerSM: 2, WarpsPerSM: 64, Fraction: 1, Limiter: "warps"}
	if got := occ.String(); !contains(got, "100%") || !contains(got, "warps-limited") {
		t.Errorf("Occupancy.String() = %q", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestLaneUtilizationAccounting(t *testing.T) {
	dev := NewDevice(TeslaK40())
	kernel := func(w *Warp) {
		buf := make([]uint8, 32)
		// Full warp access.
		w.SharedSpanLoadU8(buf, 0, 32)
		// Quarter-active access.
		w.SharedSpanLoadU8(buf, 0, 8)
	}
	rep, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 64}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.TotalLaneSlots != 64 || rep.Stats.ActiveLaneSlots != 40 {
		t.Errorf("lane slots %d/%d, want 40/64", rep.Stats.ActiveLaneSlots, rep.Stats.TotalLaneSlots)
	}
	if got := rep.Stats.LaneUtilization(); got != 40.0/64 {
		t.Errorf("utilisation %g", got)
	}
	var empty KernelStats
	if empty.LaneUtilization() != 1 {
		t.Error("empty stats should report full utilisation")
	}
}
