package pipeline

import (
	"bytes"
	"context"
	"testing"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

// runSDCStream runs the fixture stream on a single GTX 580 (one
// device keeps the launch order, and so the seeded flip schedule,
// fully deterministic) with the given silent-fault spec and verify
// mode.
func runSDCStream(t *testing.T, pl *Pipeline, fasta []byte, batchResidues int64,
	spec string, seed int64, mode VerifyMode) (*Result, *gpu.ScheduleReport) {
	t.Helper()
	sys := simt.NewSystem(simt.GTX580(), 1)
	if spec != "" {
		applyFaults(t, sys, spec, seed)
	}
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: 8}, Verify: mode})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Extra.(*MultiGPUStreamExtra).Schedule
}

// hitsIdentical reports bit-identity of two results' hit lists
// without failing the test (the corruption assertions need the
// negative).
func hitsIdentical(a, b *Result) bool {
	if len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		x, y := a.Hits[i], b.Hits[i]
		if x.Index != y.Index || x.Name != y.Name ||
			x.MSVBits != y.MSVBits || x.VitBits != y.VitBits || x.FwdBits != y.FwdBits {
			return false
		}
	}
	return true
}

// The end-to-end SDC story: the same readback-flip injection that
// provably corrupts an unverified run is caught by the guards and
// repaired by host re-execution, restoring bit-identical results.
func TestStreamSDCDetectedAndRepairedByDMR(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	const spec = "dev0:flip@p=0.05"
	const seed = 11

	off, offRep := runSDCStream(t, pl, fasta, batchResidues, spec, seed, VerifyOff)
	if hitsIdentical(whole, off) {
		t.Fatal("unverified run with injected flips matched the clean run; injection proves nothing")
	}
	if offRep.Faults.SDCDetected != 0 || offRep.Faults.SDCReruns != 0 {
		t.Errorf("verify=off counted SDC activity: %d detected, %d reruns",
			offRep.Faults.SDCDetected, offRep.Faults.SDCReruns)
	}

	reg := obs.NewRegistry()
	pl.Opts.Metrics = reg
	defer func() { pl.Opts.Metrics = nil }()
	dmr, dmrRep := runSDCStream(t, pl, fasta, batchResidues, spec, seed, VerifyDMR)
	sameHits(t, "verify=dmr under injected flips", whole, dmr)
	if dmrRep.Faults.SDCDetected < 1 {
		t.Error("verify=dmr detected no corruption despite injected flips")
	}
	if dmrRep.Faults.SDCReruns < 1 {
		t.Error("verify=dmr recorded no re-executions")
	}
	for _, name := range []string{"hmmer_sched_sdc_detected_total", "hmmer_sched_sdc_reruns_total"} {
		if v, ok := reg.Get(name); !ok || v == 0 {
			t.Errorf("%s = %v (present %v), want > 0", name, v, ok)
		}
	}
	if v, ok := reg.Get(obs.WithLabel("hmmer_sched_device_sdc_total", "device", "0")); !ok || v == 0 {
		t.Errorf("device sdc gauge = %v (present %v), want > 0", v, ok)
	}

	// Seeded determinism: the whole detect-and-repair trajectory must
	// replay exactly.
	dmr2, dmrRep2 := runSDCStream(t, pl, fasta, batchResidues, spec, seed, VerifyDMR)
	sameHits(t, "verify=dmr replay", dmr, dmr2)
	if dmrRep2.Faults.SDCDetected != dmrRep.Faults.SDCDetected ||
		dmrRep2.Faults.SDCReruns != dmrRep.Faults.SDCReruns {
		t.Errorf("replayed SDC totals %d/%d differ from %d/%d",
			dmrRep2.Faults.SDCDetected, dmrRep2.Faults.SDCReruns,
			dmrRep.Faults.SDCDetected, dmrRep.Faults.SDCReruns)
	}
}

// Guards-only mode repairs a one-shot corruption burst by discarding
// the batch and re-running it on the device's retry budget — no DMR
// callback involved. flip@launch=0 fires once (with a guaranteed
// grid-detectable readback flip), so the requeued attempt is clean
// even on the same device.
func TestStreamSDCGuardsRequeueRepairs(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	res, rep := runSDCStream(t, pl, fasta, batchResidues, "dev0:flip@launch=0", 1, VerifyGuards)
	sameHits(t, "verify=guards under a one-shot flip burst", whole, res)
	if rep.Faults.SDCDetected != 1 {
		t.Errorf("SDCDetected = %d, want 1 (the forced launch-0 burst)", rep.Faults.SDCDetected)
	}
	if rep.Faults.SDCReruns != 1 {
		t.Errorf("SDCReruns = %d, want 1 (the budgeted requeue)", rep.Faults.SDCReruns)
	}
	if rep.Faults.Devices[0].SDCs != 1 {
		t.Errorf("device SDCs = %d, want 1", rep.Faults.Devices[0].SDCs)
	}
}

// An ECC device never corrupts: the same flip spec on a Tesla K40
// must produce a clean, identical run with zero detections even under
// the strictest verify mode.
func TestStreamSDCECCDeviceImmune(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	sys := simt.NewSystem(simt.TeslaK40(), 1)
	applyFaults(t, sys, "dev0:flip@p=0.05,flip@launch=0", 11)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, Verify: VerifyDMR})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "ECC device under flip injection", whole, res)
	rep := res.Extra.(*MultiGPUStreamExtra).Schedule
	if rep.Faults.SDCDetected != 0 || rep.Faults.SDCReruns != 0 {
		t.Errorf("ECC run saw SDC activity: %d detected, %d reruns",
			rep.Faults.SDCDetected, rep.Faults.SDCReruns)
	}
	if mem := sys.Devices[0].Faults.Mem; mem.Corrected() == 0 {
		t.Error("ECC device reported no corrected flips; injection never exercised the ECC path")
	} else if mem.Flips() != 0 {
		t.Errorf("ECC device applied %d flips, want every flip corrected", mem.Flips())
	}
}

// Clean-path ordering invariant: with no faults injected, every hit of
// both engines must satisfy MSV <= Viterbi <= Forward within
// integrity.OrderingTolNats — the empirical envelope the hit guard
// depends on. A failure here means the tolerance no longer covers the
// engines' real behaviour and OrderingTolNats needs re-pinning.
func TestCleanPipelineOrderingInvariant(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	chk := &integrity.Checker{MSV: pl.MSV, Vit: pl.Vit}
	if len(whole.Hits) == 0 {
		t.Fatal("fixture produced no hits; invariant unexercised")
	}
	for _, h := range whole.Hits {
		if err := chk.CheckHit(h.Index, h.MSVBits, h.VitBits, h.FwdBits); err != nil {
			t.Errorf("CPU engine hit violates ordering envelope: %v", err)
		}
	}
	// The device path under VerifyGuards runs every guard on every
	// batch: a clean run completing without a single detection pins the
	// invariant for the GPU engines too.
	res, rep := runSDCStream(t, pl, fasta, batchResidues, "", 0, VerifyGuards)
	sameHits(t, "clean guarded device run", whole, res)
	if rep.Faults.Any() {
		t.Errorf("clean guarded device run reported fault activity: %s", &rep.Faults)
	}
}

func TestParseVerifyMode(t *testing.T) {
	for in, want := range map[string]VerifyMode{"off": VerifyOff, "guards": VerifyGuards, "dmr": VerifyDMR} {
		if got, err := ParseVerifyMode(in); err != nil || got != want {
			t.Errorf("ParseVerifyMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "DMR", "tmr"} {
		if _, err := ParseVerifyMode(bad); err == nil {
			t.Errorf("ParseVerifyMode(%q) accepted", bad)
		}
	}
}
