package simt

import (
	"errors"
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

func TestParseFaults(t *testing.T) {
	inj, err := ParseFaults("0:p=0.2;1:at=1,hang=3;2:dead", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj) != 3 {
		t.Fatalf("parsed %d devices, want 3", len(inj))
	}
	if inj[0].p != 0.2 {
		t.Errorf("device 0 p = %v, want 0.2", inj[0].p)
	}
	if inj[1].at[1] != FaultLaunch || inj[1].at[3] != FaultHang {
		t.Errorf("device 1 schedule = %v, want at=1 launch, at=3 hang", inj[1].at)
	}
	if inj[2].lostFrom != 0 {
		t.Errorf("device 2 lostFrom = %d, want 0", inj[2].lostFrom)
	}

	if _, err := ParseFaults("3:dead=5", 0, 0); err != nil {
		t.Errorf("dead=<ordinal>: unexpected error %v", err)
	}

	for _, bad := range []string{
		"", "p=0.5", "x:p=0.5", "0:p=2", "0:at=x", "0:frob=1", "0:at", "-1:dead",
		"0:flip", "0:flip@p", "0:flip@p=2", "0:flip@p=x", "0:flip@shared=-1",
		"0:flip@launch", "0:flip@launch=-1", "0:flip@launch=x", "0:flip@global=0.1",
	} {
		if _, err := ParseFaults(bad, 0, 0); err == nil {
			t.Errorf("ParseFaults(%q) accepted, want error", bad)
		}
	}
}

func TestParseFaultsFlipSyntax(t *testing.T) {
	inj, err := ParseFaults("0:flip@p=1e-6;1:flip@shared=0.01,flip@launch=7;2:p=0.1", 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inj[0].Mem == nil || inj[0].Mem.readbackP != 1e-6 {
		t.Errorf("device 0 readback flip prob not wired: %+v", inj[0].Mem)
	}
	if inj[1].Mem == nil || inj[1].Mem.sharedP != 0.01 || !inj[1].Mem.atLaunch[7] {
		t.Errorf("device 1 shared/launch flips not wired: %+v", inj[1].Mem)
	}
	if inj[2].Mem != nil {
		t.Error("device 2 has a memory-fault injector despite no flip clause")
	}
	if inj[1].p != 0 {
		t.Error("flip clauses leaked into the fail-stop probability")
	}
}

func TestParseFaultsRejectsOutOfRangeDevice(t *testing.T) {
	if _, err := ParseFaults("3:dead", 0, 4); err != nil {
		t.Errorf("device 3 of 4: unexpected error %v", err)
	}
	_, err := ParseFaults("4:flip@p=0.5", 0, 4)
	if err == nil {
		t.Fatal("device 4 of 4 accepted, want error")
	}
	if !strings.Contains(err.Error(), "only devices 0..3 are configured") {
		t.Errorf("error %q does not name the configured range", err)
	}
}

func TestApplyFaults(t *testing.T) {
	sys := NewSystem(TeslaK40(), 2)
	inj, err := ParseFaults("1:dead", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ApplyFaults(inj); err != nil {
		t.Fatal(err)
	}
	if sys.Devices[0].Faults != nil || sys.Devices[1].Faults == nil {
		t.Error("ApplyFaults attached injectors to the wrong devices")
	}
	bad, _ := ParseFaults("5:dead", 0, 0)
	if err := sys.ApplyFaults(bad); err == nil {
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
// warps parked in __syncthreads: the barrier is poisoned and the launch
// returns the original panic.
func TestCooperativePanicPoisonsBarrier(t *testing.T) {
	dev := NewDevice(TeslaK40())
	done := make(chan error, 1)
	go func() {
		_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 4, Cooperative: true},
			func(w *Warp) {
				if w.WarpInBlock == 2 {
					panic("warp 2 dies before the barrier")
				}
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
		if kp.Value != "warp 2 dies before the barrier" {
			t.Errorf("recovered value = %v, want the original panic", kp.Value)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cooperative launch deadlocked after a warp panic")
	}
}

func TestLaunchTimeoutReturnsHung(t *testing.T) {
	dev := NewDevice(TeslaK40())
	dev.LaunchTimeout = 20 * time.Millisecond
	release := make(chan struct{})
	_, err := dev.Launch(LaunchConfig{Blocks: 1, WarpsPerBlock: 1}, func(w *Warp) {
		<-release
	})
	close(release)
	if !errors.Is(err, ErrDeviceHung) {
		t.Fatalf("err = %v, want ErrDeviceHung", err)
	}
	if !IsTransientFault(err) {
		t.Error("watchdog hang should classify as transient")
	}

	// A fast launch under the same deadline succeeds.
	if err := launchOnce(t, dev); err != nil {
		t.Fatalf("fast launch under deadline: %v", err)
	}
}
