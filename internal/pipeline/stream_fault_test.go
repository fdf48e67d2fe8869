package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/workload"
)

// applyFaults attaches the dev<N> clauses of a fault spec to sys.
func applyFaults(t *testing.T, sys *simt.System, spec string, seed int64) {
	t.Helper()
	plan, err := faults.Parse(spec, seed, len(sys.Devices), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ApplyFaults(plan.Devices); err != nil {
		t.Fatal(err)
	}
}

// faultStreamFixture builds a clustered workload, its FASTA bytes, the
// pipeline, and the fault-free whole-database reference result.
func faultStreamFixture(t *testing.T) (*Pipeline, []byte, *Result, int64) {
	t.Helper()
	h, err := workload.Model("chaos", 60, abc, 31)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _ := clusteredDB(t, h, 60, 10, 32)
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Hits) < 4 {
		t.Fatalf("only %d hits; workload too weak", len(whole.Hits))
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		t.Fatal(err)
	}
	// A residue budget that yields a handful of batches.
	batchResidues := db.TotalResidues() / 6
	return pl, fasta.Bytes(), whole, batchResidues
}

// holdUntilClaimed makes every device of sys but dead hold its first
// successful launch until the dead device has arbitrated launch lostAt
// — and so failed: the healthy devices cannot drain the stream before
// the dead one reaches its loss, whatever the host schedule.
func holdUntilClaimed(sys *simt.System, dead int, lostAt int64) {
	for i, d := range sys.Devices {
		if i != dead {
			d.Profiler = claimGate{sys.Devices[dead].Faults, lostAt}
		}
	}
}

// claimGate is the simt.Profiler holdUntilClaimed attaches; it collects
// nothing.
type claimGate struct {
	dead   *simt.FaultInjector
	lostAt int64
}

func (claimGate) SamplePeriod() int { return 1 }

func (g claimGate) OnLaunch(*simt.LaunchProfile) {
	for g.dead.Launches() <= g.lostAt {
		runtime.Gosched()
	}
}

// A streamed run with seeded transient faults on two devices and one
// permanently dead device must complete with results bit-identical to
// the fault-free run.
func TestStreamFaultedRunMatchesClean(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)

	reg := obs.NewRegistry()
	pl.Opts.Metrics = reg
	defer func() { pl.Opts.Metrics = nil }()

	sys := simt.NewSystem(simt.GTX580(), 4)
	applyFaults(t, sys, "dev0:p=0.3;dev1:at=1,hang=3;dev2:dead", 99)
	holdUntilClaimed(sys, 2, 0)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: 8}})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "faulted 4-device stream", whole, res)
	rep := res.Extra.(*MultiGPUStreamExtra).Schedule
	if !rep.Faults.Any() {
		t.Fatal("fault report empty despite injected faults")
	}
	if rep.Faults.Retries == 0 {
		t.Error("no retries recorded for transient faults")
	}
	if !rep.Faults.Devices[2].Quarantined {
		t.Error("dead device 2 not quarantined")
	}
	if rep.Util[2].Batches != 0 {
		t.Errorf("dead device 2 credited %d completed batches", rep.Util[2].Batches)
	}
	for _, name := range []string{"hmmer_sched_retries_total", "hmmer_sched_requeues_total"} {
		if v, ok := reg.Get(name); !ok || v == 0 {
			t.Errorf("%s = %v (present %v), want > 0", name, v, ok)
		}
	}
	if v, ok := reg.Get(obs.WithLabel("hmmer_sched_device_quarantined", "device", "2")); !ok || v != 1 {
		t.Errorf("device 2 quarantine gauge = %v (present %v), want 1", v, ok)
	}
}

// With every device dead the stream must still complete — on the host
// CPU — with bit-identical results.
func TestStreamAllDevicesDeadFallsBackToCPU(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)

	sys := simt.NewSystem(simt.GTX580(), 2)
	applyFaults(t, sys, "dev0:dead;dev1:dead", 0)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "all-dead stream via cpu fallback", whole, res)
	rep := res.Extra.(*MultiGPUStreamExtra).Schedule
	if rep.Faults.Quarantines != 2 {
		t.Errorf("quarantines = %d, want 2", rep.Faults.Quarantines)
	}
	if rep.Faults.Fallbacks != rep.Batches {
		t.Errorf("fallback completed %d of %d batches", rep.Faults.Fallbacks, rep.Batches)
	}
}

// A device lost mid-run, after it has completed work, is quarantined
// and its in-flight batch finishes elsewhere with bit-identical
// results.
func TestStreamDeviceLostMidRunQuarantined(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)

	sys := simt.NewSystem(simt.GTX580(), 2)
	applyFaults(t, sys, "dev1:dead=2", 0)
	holdUntilClaimed(sys, 1, 2)
	res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: 8}})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "device lost at launch 2", whole, res)
	rep := res.Extra.(*MultiGPUStreamExtra).Schedule
	if rep.Faults.Quarantines != 1 || !rep.Faults.Devices[1].Quarantined {
		t.Errorf("quarantines = %d (device 1 %v), want exactly device 1",
			rep.Faults.Quarantines, rep.Faults.Devices[1].Quarantined)
	}
}

func TestStreamFallbackDisabledFailsWhenAllDead(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	sys := simt.NewSystem(simt.GTX580(), 2)
	applyFaults(t, sys, "dev0:dead;dev1:dead", 0)
	_, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, DisableFallback: true})
	if !errors.Is(err, gpu.ErrAllQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined", err)
	}
}

// A process error on a batch after the first (a transient fault with
// retries disabled) must surface as the run's error.
func TestStreamProcessErrorOnLaterBatch(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	sys := simt.NewSystem(simt.GTX580(), 2)
	// Launch ordinal 2 is a batch after the first on that device (each
	// batch issues at least one launch).
	sys.Devices[0].Faults = simt.NewFaultInjector(1).FailAt(2, simt.FaultLaunch)
	sys.Devices[1].Faults = simt.NewFaultInjector(1).FailAt(2, simt.FaultLaunch)
	_, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: -1, QuarantineAfter: -1}})
	if !errors.Is(err, simt.ErrLaunchFailed) {
		t.Fatalf("err = %v, want wrapped ErrLaunchFailed", err)
	}
}

// A producer (FASTA parse) error mid-stream must abort the run and
// surface as the run's error.
func TestStreamProducerErrorMidStream(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	sys := simt.NewSystem(simt.GTX580(), 2)
	boom := errors.New("disk gone")
	r := io.MultiReader(bytes.NewReader(fasta[:len(fasta)/2]), &failingReader{err: boom})
	_, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, r,
		StreamConfig{BatchResidues: batchResidues})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader's error", err)
	}
}

type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

func TestStreamContextCancellation(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	sys := simt.NewSystem(simt.GTX580(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pl.RunMultiGPUStreamContext(ctx, sys, gpu.MemAuto, bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Two identically seeded faulted runs must inject the same fault
// schedule and report identical fault totals — the reproducibility the
// chaos CI job depends on.
func TestStreamSeededFaultDeterminism(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	run := func() (*Result, *gpu.ScheduleReport) {
		sys := simt.NewSystem(simt.GTX580(), 3)
		applyFaults(t, sys, "dev0:at=0,at=2;dev1:at=1;dev2:dead", 7)
		holdUntilClaimed(sys, 2, 0)
		res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta),
			StreamConfig{BatchResidues: batchResidues, Policy: dispatch.Policy{MaxRetries: 8}})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Extra.(*MultiGPUStreamExtra).Schedule
	}
	res1, rep1 := run()
	res2, rep2 := run()
	sameHits(t, "seeded fault run 1 vs clean", whole, res1)
	sameHits(t, "seeded fault run 2 vs run 1", res1, res2)
	if fmt.Sprint(rep1.Faults.Devices) != fmt.Sprint(rep2.Faults.Devices) {
		t.Errorf("per-device fault stats differ across identically seeded runs:\n%+v\n%+v",
			rep1.Faults.Devices, rep2.Faults.Devices)
	}
}
