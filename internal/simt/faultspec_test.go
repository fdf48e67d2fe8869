package simt_test

import (
	"strings"
	"testing"

	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/simt"
)

// The dev<N> clauses of a fault spec reach each device's injector.
func TestParseFaults(t *testing.T) {
	plan, err := faults.Parse("dev0:p=0.2;dev1:at=1,hang=3;dev2:dead", 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Devices
	if len(inj) != 3 {
		t.Fatalf("parsed %d devices, want 3", len(inj))
	}
	if p, _, _ := simt.FaultSettings(inj[0]); p != 0.2 {
		t.Errorf("device 0 p = %v, want 0.2", p)
	}
	if _, at, _ := simt.FaultSettings(inj[1]); at[1] != simt.FaultLaunch || at[3] != simt.FaultHang {
		t.Errorf("device 1 schedule = %v, want at=1 launch, at=3 hang", at)
	}
	if _, _, lostFrom := simt.FaultSettings(inj[2]); lostFrom != 0 {
		t.Errorf("device 2 lostFrom = %d, want 0", lostFrom)
	}

	plan, err = faults.Parse("dev3:dead=5", 0, 4, 0)
	if err != nil {
		t.Fatalf("dead=<ordinal>: unexpected error %v", err)
	}
	if _, _, lostFrom := simt.FaultSettings(plan.Devices[3]); lostFrom != 5 {
		t.Errorf("device 3 lostFrom = %d, want 5", lostFrom)
	}

	for _, bad := range []string{
		"", "p=0.5", "devx:p=0.5", "dev0:p=2", "dev0:at=x", "dev0:frob=1", "dev0:at", "dev-1:dead",
		"dev0:flip", "dev0:flip@p", "dev0:flip@p=2", "dev0:flip@p=x", "dev0:flip@shared=-1",
		"dev0:flip@launch", "dev0:flip@launch=-1", "dev0:flip@launch=x", "dev0:flip@global=0.1",
	} {
		if _, err := faults.Parse(bad, 0, 4, 0); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// flip@ clauses attach a memory-fault injector and leave the fail-stop
// settings alone.
func TestParseFaultsFlipSyntax(t *testing.T) {
	plan, err := faults.Parse("dev0:flip@p=1e-6;dev1:flip@shared=0.01,flip@launch=7;dev2:p=0.1", 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := plan.Devices
	if inj[0].Mem == nil {
		t.Error("device 0 has no memory-fault injector")
	} else if readbackP, _, _ := simt.FlipSettings(inj[0].Mem); readbackP != 1e-6 {
		t.Errorf("device 0 readback flip prob = %v, want 1e-6", readbackP)
	}
	if inj[1].Mem == nil {
		t.Error("device 1 has no memory-fault injector")
	} else if _, sharedP, atLaunch := simt.FlipSettings(inj[1].Mem); sharedP != 0.01 || !atLaunch[7] {
		t.Errorf("device 1 shared/launch flips not wired: shared=%v launches=%v", sharedP, atLaunch)
	}
	if inj[2].Mem != nil {
		t.Error("device 2 has a memory-fault injector despite no flip clause")
	}
	if p, _, _ := simt.FaultSettings(inj[1]); p != 0 {
		t.Error("flip clauses leaked into the fail-stop probability")
	}
}

func TestParseFaultsRejectsOutOfRangeDevice(t *testing.T) {
	if _, err := faults.Parse("dev3:dead", 0, 4, 0); err != nil {
		t.Errorf("device 3 of 4: unexpected error %v", err)
	}
	_, err := faults.Parse("dev4:flip@p=0.5", 0, 4, 0)
	if err == nil {
		t.Fatal("device 4 of 4 accepted, want error")
	}
	if !strings.Contains(err.Error(), "out of range (4 configured)") {
		t.Errorf("error %q does not name the configured range", err)
	}
}
