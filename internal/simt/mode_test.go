package simt

import "testing"

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"cycles", ModeCycleAccurate, false},
		{"cycle-accurate", ModeCycleAccurate, false},
		{"accurate", ModeCycleAccurate, false},
		{"fast", ModeFast, false},
		{"functional", ModeFast, false},
		{"", 0, true},
		{"FAST", 0, true},
		{"turbo", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMode(%q) error = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if ModeCycleAccurate.String() != "cycles" || ModeFast.String() != "fast" {
		t.Errorf("String(): got %q/%q, want cycles/fast",
			ModeCycleAccurate, ModeFast)
	}
}

// TestFastModeRecordsNothing pins the uncosted-warp contract: a fast
// launch that exercises every metered operation class reports stats
// equal to the zero KernelStats apart from WarpsExecuted — no cycles,
// no transactions, no lane occupancy.
func TestFastModeRecordsNothing(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	const blocks, wpb = 4, 2
	kernel := func(w *Warp) {
		lanes := w.Lanes()
		i16 := make([]int16, lanes)
		u8 := make([]uint8, lanes)
		words := make([]uint64, lanes/4)
		src, dst := make([]int32, lanes), make([]int32, lanes)
		w.ALU(7)
		w.SharedSpanStoreI16(i16, 0, lanes)
		w.SharedSpanLoadI16(i16, 0, lanes)
		w.SharedSpanStoreU8(u8, 0, lanes)
		w.SharedSpanLoadU8(u8, 0, lanes)
		w.SharedSpanStoreWords(words, 0, lanes, 2)
		w.SharedSpanLoadWords(words, 0, lanes, 2)
		w.SharedSpanStoreWords(words, 3, lanes-5, 1)
		w.SharedSpanLoadWords(words, 3, lanes-5, 1)
		w.SharedSpanTouch(0, 4, lanes, false)
		w.SharedBroadcastI16(0)
		w.GlobalSpanLoadCached(0, 4, lanes)
		w.GlobalSpanStore(0, 8, 1)
		w.GlobalBroadcastLoad(0, 4)
		w.ShflUpI32Into(dst, src, 1)
		w.Vote()
	}
	rep, err := dev.Launch(LaunchConfig{
		Blocks: blocks, WarpsPerBlock: wpb, SharedBytesPerBlock: 1024,
	}, kernel)
	if err != nil {
		t.Fatal(err)
	}
	want := KernelStats{WarpsExecuted: blocks * wpb}
	if rep.Stats != want {
		t.Errorf("fast-mode stats = %+v, want %+v", rep.Stats, want)
	}
}

// TestFastModeOpsAllocateNothing asserts the fast-path ops a kernel's
// inner loop issues are allocation-free: the whole point of ModeFast
// is that per-op overhead collapses to one branch and a slice copy.
func TestFastModeOpsAllocateNothing(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.Mode = ModeFast
	var allocs float64
	_, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 1024,
	}, func(w *Warp) {
		lanes := w.Lanes()
		i16 := make([]int16, lanes)
		words := make([]uint64, lanes/4)
		src, dst := make([]int32, lanes), make([]int32, lanes)
		allocs = testing.AllocsPerRun(100, func() {
			w.SharedSpanStoreI16(i16, 0, lanes)
			w.SharedSpanLoadI16(i16, 0, lanes)
			w.SharedSpanStoreWords(words, 0, lanes, 2)
			w.SharedSpanLoadWords(words, 0, lanes, 2)
			w.SharedSpanStoreWords(words, 3, lanes-5, 1)
			w.SharedSpanLoadWords(words, 3, lanes-5, 1)
			w.SharedSpanTouch(0, 4, lanes, false)
			w.ALU(3)
			w.ShflUpI32Into(dst, src, 1)
			w.Vote()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("fast-mode span ops allocate %.1f objects per iteration, want 0", allocs)
	}
}
