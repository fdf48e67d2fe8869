package simt

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func launchOnce(t *testing.T, dev *Device) error {
	t.Helper()
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, func(w *Warp) {
		w.ALU(1)
	})
	return err
}

func TestFaultInjectorAtOrdinal(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.Faults = NewFaultInjector(1).FailAt(1, FaultLaunch).FailAt(2, FaultHang)

	if err := launchOnce(t, dev); err != nil {
		t.Fatalf("launch 0: unexpected error %v", err)
	}

	err := launchOnce(t, dev)
	if !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("launch 1: err = %v, want ErrLaunchFailed", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("launch 1: err = %v, want *FaultError", err)
	}
	if fe.Device != dev.Track() || fe.Ordinal != 1 || fe.Persistent {
		t.Errorf("fault = %+v, want device %q ordinal 1 transient", fe, dev.Track())
	}
	if !IsTransientFault(err) || IsPersistentFault(err) {
		t.Errorf("launch-failed fault misclassified: transient=%v persistent=%v",
			IsTransientFault(err), IsPersistentFault(err))
	}

	err = launchOnce(t, dev)
	if !errors.Is(err, ErrDeviceHung) {
		t.Fatalf("launch 2: err = %v, want ErrDeviceHung", err)
	}
	if !IsTransientFault(err) {
		t.Error("hang fault should be transient (device returned control)")
	}

	if err := launchOnce(t, dev); err != nil {
		t.Fatalf("launch 3: unexpected error %v", err)
	}
	if got := dev.Faults.Injected(); got != 2 {
		t.Errorf("Injected() = %d, want 2", got)
	}
	if got := dev.Faults.Launches(); got != 4 {
		t.Errorf("Launches() = %d, want 4", got)
	}
}

func TestFaultInjectorDeviceLost(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.Faults = NewFaultInjector(1).LoseFrom(2)

	for i := 0; i < 2; i++ {
		if err := launchOnce(t, dev); err != nil {
			t.Fatalf("launch %d: unexpected error %v", i, err)
		}
	}
	// Lost is sticky: every launch from the ordinal on fails.
	for i := 2; i < 5; i++ {
		err := launchOnce(t, dev)
		if !errors.Is(err, ErrDeviceLost) {
			t.Fatalf("launch %d: err = %v, want ErrDeviceLost", i, err)
		}
		if !IsPersistentFault(err) || IsTransientFault(err) {
			t.Fatalf("launch %d: lost fault misclassified", i)
		}
	}
}

func TestFaultInjectorProbDeterminism(t *testing.T) {
	schedule := func(seed int64) []bool {
		dev := NewDevice(TeslaK40())
		dev.Faults = NewFaultInjector(seed).FailProb(0.4)
		out := make([]bool, 64)
		for i := range out {
			out[i] = launchOnce(t, dev) != nil
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("launch %d: same seed diverged (%v vs %v)", i, a[i], b[i])
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("p=0.4 over %d launches injected %d faults; want some but not all", len(a), faults)
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical fault schedules")
	}
}

func TestApplyFaults(t *testing.T) {
	sys := NewSystem(TeslaK40(), 2)
	if err := sys.ApplyFaults(map[int]*FaultInjector{1: NewFaultInjector(0).LoseFrom(0)}); err != nil {
		t.Fatal(err)
	}
	if sys.Devices[0].Faults != nil || sys.Devices[1].Faults == nil {
		t.Error("ApplyFaults attached injectors to the wrong devices")
	}
	if err := sys.ApplyFaults(map[int]*FaultInjector{5: NewFaultInjector(0)}); err == nil {
		t.Error("ApplyFaults accepted an out-of-range device index")
	}
}

func TestKernelPanicRecoveredWithContext(t *testing.T) {
	dev := NewDevice(GTX580())
	src, dst := make([]int32, 32), make([]int32, 32)
	_, err := dev.Launch(LaunchConfig{Blocks: 3, WarpsPerBlock: 1, Name: "msv", HostWorkers: 1},
		func(w *Warp) {
			if w.BlockIdx == 1 {
				w.ShflUpI32Into(dst, src, 1)
			}
		})
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("err = %v, want *KernelPanicError", err)
	}
	if kp.Op != "shfl.up" || kp.Block != 1 || kp.Warp != 0 || kp.Kernel != "msv" {
		t.Errorf("panic context = op %q block %d warp %d kernel %q; want shfl.up/1/0/msv",
			kp.Op, kp.Block, kp.Warp, kp.Kernel)
	}
	if kp.Device != dev.Track() {
		t.Errorf("panic device = %q, want %q", kp.Device, dev.Track())
	}
	// Kernel panics are deterministic bugs, never device faults.
	if IsTransientFault(err) || IsPersistentFault(err) {
		t.Error("kernel panic classified as a device fault")
	}
}

func TestRawPanicRecovered(t *testing.T) {
	dev := NewDevice(TeslaK40())
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, func(w *Warp) {
		panic("kernel bug")
	})
	var kp *KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("err = %v, want *KernelPanicError", err)
	}
	if kp.Value != "kernel bug" || kp.Stack == "" {
		t.Errorf("recovered value = %v (stack %d bytes), want original payload with stack",
			kp.Value, len(kp.Stack))
	}
}

// A panic in one warp of a cooperative block must not deadlock sibling
// warps parked in __syncthreads: warps 0 and 1 have stored to shared
// memory and are parked at the barrier when warp 2 panics, before the
// barrier or inside a shared span. The parked warps and the unstarted
// warp 3 unwind, and the launch returns the original panic.
func TestCooperativePanicPoisonsBarrier(t *testing.T) {
	cases := []struct {
		name  string
		warp2 func(w *Warp) // panics
		want  string        // in the recovered value
	}{
		{"before the barrier", func(w *Warp) { panic("warp 2 dies before the barrier") },
			"warp 2 dies before the barrier"},
		{"inside a shared span", func(w *Warp) {
			var dst [32]uint8
			w.SharedSpanLoadU8(dst[:], 4*32-16, 32)
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := NewDevice(TeslaK40())
			done := make(chan error, 1)
			go func() {
				_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 4, Cooperative: true,
					SharedBytesPerBlock: 4 * 32},
					func(w *Warp) {
						if w.WarpInBlock == 2 {
							tc.warp2(w)
						}
						var src [32]uint8
						w.SharedSpanStoreU8(src[:], 32*w.WarpInBlock, 32)
						w.Sync()
					})
				done <- err
			}()
			select {
			case err := <-done:
				var kp *KernelPanicError
				if !errors.As(err, &kp) {
					t.Fatalf("err = %v, want *KernelPanicError", err)
				}
				if got := fmt.Sprint(kp.Value); !strings.Contains(got, tc.want) {
					t.Errorf("recovered value = %q, want the original panic (%q)", got, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cooperative launch deadlocked after a warp panic")
			}
		})
	}
}
