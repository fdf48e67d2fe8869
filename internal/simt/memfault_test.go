package simt

import (
	"testing"
)

// flipProbe launches one kernel that stores a known pattern into
// shared memory and reads it back, returning the lane indices whose
// readback disagreed with the stored byte (i.e. the observed silent
// corruption).
func flipProbe(t *testing.T, spec DeviceSpec, mem *MemFaultInjector) []int {
	t.Helper()
	dev := NewDevice(spec)
	dev.Faults = NewFaultInjector(1)
	dev.Faults.Mem = mem
	const sharedBytes = 4096
	var bad []int
	_, err := dev.Launch(LaunchConfig{Blocks: 4, WarpsPerBlock: 1, SharedBytesPerBlock: sharedBytes, HostWorkers: 1},
		func(w *Warp) {
			lanes := w.Lanes()
			vals := make([]uint8, lanes)
			got := make([]uint8, lanes)
			for off := 0; off < sharedBytes; off += lanes {
				for l := range vals {
					vals[l] = uint8(off + l)
				}
				w.SharedSpanStoreU8(vals, off, lanes)
				w.SharedSpanLoadU8(got, off, lanes)
				for l := range got {
					if got[l] != vals[l] {
						bad = append(bad, w.BlockIdx*sharedBytes+off+l)
					}
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func TestMemFlipSharedDeterminism(t *testing.T) {
	a := flipProbe(t, GTX580(), NewMemFaultInjector(11).FlipShared(0.01))
	b := flipProbe(t, GTX580(), NewMemFaultInjector(11).FlipShared(0.01))
	if len(a) == 0 {
		t.Fatal("p=0.01 over 4x4096 bytes flipped nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed flipped %d vs %d bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at flip %d: byte %d vs %d", i, a[i], b[i])
		}
	}
	c := flipProbe(t, GTX580(), NewMemFaultInjector(12).FlipShared(0.01))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 11 and 12 produced identical flip sets")
	}
}

func TestMemFlipECCSuppressed(t *testing.T) {
	mem := NewMemFaultInjector(11).FlipShared(0.05).FlipAt(0)
	if bad := flipProbe(t, TeslaK40(), mem); len(bad) != 0 {
		t.Fatalf("ECC device surfaced %d corrupted bytes", len(bad))
	}
	if mem.Corrected() == 0 {
		t.Error("ECC device corrected no flips despite aggressive injection")
	}
	if mem.Flips() != 0 {
		t.Errorf("ECC device applied %d flips, want 0", mem.Flips())
	}
}

func TestMemFlipAtForcesReadback(t *testing.T) {
	dev := NewDevice(GTX580())
	dev.Faults = NewFaultInjector(1)
	dev.Faults.Mem = NewMemFaultInjector(3).FlipAt(1)
	run := func() {
		if err := launchOnce(t, dev); err != nil {
			t.Fatal(err)
		}
	}

	run() // launch 0: not scheduled
	if flips := dev.ReadbackFaults(8); flips != nil {
		t.Fatalf("launch 0 readback flipped %v, want none", flips)
	}
	run() // launch 1: forced burst
	flips := dev.ReadbackFaults(8)
	if len(flips) != 1 {
		t.Fatalf("forced launch readback: %d flips, want exactly 1", len(flips))
	}
	if f := flips[0]; f.Word < 0 || f.Word >= 8 || f.Bit > 63 {
		t.Errorf("flip %+v out of range for an 8-word buffer", f)
	}
	// The forced flip is consumed: the next readback is clean.
	if flips := dev.ReadbackFaults(8); flips != nil {
		t.Fatalf("post-forced readback flipped %v, want none", flips)
	}
	if dev.Faults.Mem.Flips() == 0 {
		t.Error("applied flips not counted")
	}
	if got := dev.Faults.Mem.Launches(); got != 2 {
		t.Errorf("Launches() = %d, want 2", got)
	}
}

func TestReadbackFaultsNilSafety(t *testing.T) {
	dev := NewDevice(GTX580())
	if flips := dev.ReadbackFaults(8); flips != nil {
		t.Fatalf("no injector: got %v", flips)
	}
	dev.Faults = NewFaultInjector(1) // fail-stop only, no Mem
	if flips := dev.ReadbackFaults(8); flips != nil {
		t.Fatalf("no memory injector: got %v", flips)
	}
}
