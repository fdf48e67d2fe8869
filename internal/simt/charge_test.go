package simt

import "testing"

// TestChargeEqualsOps holds a Charge to the ops it stands for: a warp
// that applies a tallied run three times must report the KernelStats
// of a warp that issues the run's ops three times — on both devices,
// with ragged spans, and in a cooperative block, where the applied
// cycles must reach the barrier's stall accounting as the ops' do. In
// fast mode Apply records nothing and allocates nothing.
func TestChargeEqualsOps(t *testing.T) {
	const reps = 3
	for _, spec := range []DeviceSpec{TeslaK40(), GTX580()} {
		ops := func(w *Warp) {
			w.ALU(5)
			if w.HasShuffle() {
				src, dst := make([]int32, 32), make([]int32, 32)
				for range 5 {
					w.ShflUpI32Into(dst, src, 1)
				}
			}
			w.SharedSpanTouch(0, 1, 32, true)
			w.SharedSpanTouch(0, 2, 7, false)
			w.SharedSpanTouch(0, 2, 65, false)
			w.SharedBroadcastU8(0)
		}
		tally := func(w *Warp) Charge {
			c := w.NewCharge()
			c.ALU(5)
			if w.HasShuffle() {
				c.Shuffle(5)
			}
			c.SharedSpan(32, true)
			c.SharedSpan(7, false)
			c.SharedSpan(65, false)
			c.SharedBroadcast()
			return c
		}
		launch := func(mode Mode, charged bool) KernelStats {
			dev := NewDevice(spec)
			dev.Mode = mode
			rep, err := dev.Launch(LaunchConfig{
				Blocks: 2, WarpsPerBlock: 2, SharedBytesPerBlock: 256, Cooperative: true,
			}, func(w *Warp) {
				// Warp 0 does the work, so warp 1 stalls at the barrier
				// for exactly its cycles.
				if w.WarpInBlock == 0 {
					c := tally(w)
					for range reps {
						if charged {
							w.Apply(&c)
						} else {
							ops(w)
						}
					}
				}
				w.Sync()
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stats
		}
		want := launch(ModeCycleAccurate, false)
		if want.SyncStallCycles == 0 {
			t.Fatalf("%s: no stall cycles; the barrier checks nothing", spec.Name)
		}
		if got := launch(ModeCycleAccurate, true); got != want {
			t.Errorf("%s: charged\n%v\nissued\n%v", spec.Name, &got, &want)
		}
		if got, want := launch(ModeFast, true), (KernelStats{WarpsExecuted: 4}); got != want {
			t.Errorf("%s: fast-mode Apply recorded %v", spec.Name, &got)
		}
	}

	dev := NewDevice(GTX580())
	dev.Mode = ModeFast
	var allocs float64
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1, SharedBytesPerBlock: 64}, func(w *Warp) {
		c := w.NewCharge()
		c.ALU(3)
		allocs = testing.AllocsPerRun(100, func() { w.Apply(&c) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("fast-mode Apply allocates %.1f objects per call, want 0", allocs)
	}
}
