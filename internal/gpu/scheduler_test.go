package gpu

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// runDBs runs s over a producer of bare databases, numbering the
// batches and their offsets in submission order.
func runDBs(ctx context.Context, s *Scheduler,
	produce func(submit func(db *seq.Database) error) error,
	process func(devIdx int, dev *simt.Device, b Batch) error,
) (*ScheduleReport, error) {
	seqNo, offset := 0, 0
	return s.RunBatches(ctx, func(submit func(b Batch) error) error {
		return produce(func(db *seq.Database) error {
			if err := submit(Batch{Seq: seqNo, Offset: offset, DB: db}); err != nil {
				return err
			}
			seqNo++
			offset += db.NumSeqs()
			return nil
		})
	}, process)
}

// feedBatches submits n small databases with the given per-batch
// residue counts.
func feedBatches(rng *rand.Rand, lens []int) func(submit func(*seq.Database) error) error {
	return func(submit func(*seq.Database) error) error {
		for _, l := range lens {
			db := seq.NewDatabase("sched")
			db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, l)})
			if err := submit(db); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSchedulerProcessesEveryBatchOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sys := simt.NewSystem(simt.GTX580(), 3)
	lens := make([]int, 40)
	var wantResidues int64
	for i := range lens {
		lens[i] = 10 + rng.Intn(90)
		wantResidues += int64(lens[i])
	}

	var mu sync.Mutex
	seen := map[int]int{}    // batch ordinal -> times processed
	offsets := map[int]int{} // batch ordinal -> offset
	s := &Scheduler{Sys: sys}
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(2)), lens),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if dev != sys.Devices[devIdx] {
				t.Error("devIdx does not match the device")
			}
			mu.Lock()
			seen[b.Seq]++
			offsets[b.Seq] = b.Offset
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != len(lens) || len(seen) != len(lens) {
		t.Fatalf("processed %d distinct of %d submitted batches", len(seen), rep.Batches)
	}
	for ord, n := range seen {
		if n != 1 {
			t.Errorf("batch %d processed %d times", ord, n)
		}
	}
	// One sequence per batch, so offsets must be exactly the ordinals.
	for ord, off := range offsets {
		if off != ord {
			t.Errorf("batch %d has offset %d", ord, off)
		}
	}
	if rep.Seqs != len(lens) || rep.Residues != wantResidues {
		t.Errorf("report totals %d seqs / %d residues, want %d / %d",
			rep.Seqs, rep.Residues, len(lens), wantResidues)
	}
	var busy time.Duration
	var gotResidues int64
	var gotBatches int
	for _, u := range rep.Util {
		busy += u.Busy
		gotResidues += u.Residues
		gotBatches += u.Batches
	}
	if gotBatches != len(lens) || gotResidues != wantResidues {
		t.Errorf("utilization sums %d batches / %d residues, want %d / %d",
			gotBatches, gotResidues, len(lens), wantResidues)
	}
	if busy <= 0 || rep.Wall <= 0 {
		t.Error("busy/wall times not recorded")
	}
}

func TestSchedulerBalancesAroundSlowDevice(t *testing.T) {
	// Device 0 holds its first batch until the fast devices have served
	// every other one; dynamic assignment must route the work to them
	// instead of stalling on the static 1/N share.
	sys := simt.NewSystem(simt.GTX580(), 3)
	lens := make([]int, 30)
	for i := range lens {
		lens[i] = 20
	}
	var fastDone atomic.Int32
	slowFree := make(chan struct{})
	s := &Scheduler{Sys: sys, QueueDepth: 1}
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(3)), lens),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				<-slowFree
			} else if fastDone.Add(1) == int32(len(lens)-1) {
				close(slowFree)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	fast := rep.Util[1].Batches + rep.Util[2].Batches
	if slow := rep.Util[0].Batches; slow >= fast {
		t.Errorf("slow device served %d of %d batches; scheduler did not rebalance", slow, rep.Batches)
	}
	if fast+rep.Util[0].Batches != len(lens) {
		t.Errorf("batches lost: %d + %d != %d", fast, rep.Util[0].Batches, len(lens))
	}
}

func TestSchedulerBackpressureBoundsQueue(t *testing.T) {
	// With QueueDepth=2 and workers blocked, at most depth+devices
	// batches can be submitted before the producer blocks.
	// The bound is checked at every submit: the workers stay blocked
	// until the queue is full and both hold a batch.
	sys := simt.NewSystem(simt.GTX580(), 2)
	release := make(chan struct{})
	var released atomic.Bool
	full := make(chan struct{})
	claimed := make(chan struct{}, 2)
	var submitted atomic.Int64
	done := make(chan error, 1)
	s := &Scheduler{Sys: sys, QueueDepth: 2}
	go func() {
		_, err := runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 20; i++ {
				db := seq.NewDatabase("bp")
				db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, 10)})
				if err := submit(db); err != nil {
					return err
				}
				switch n := submitted.Add(1); {
				case n > 4 && !released.Load():
					t.Errorf("%d batches submitted while workers blocked; backpressure bound is 4", n)
				case n == 4:
					close(full)
				}
			}
			return nil
		}, func(devIdx int, dev *simt.Device, b Batch) error {
			select {
			case claimed <- struct{}{}:
			default:
			}
			<-release
			return nil
		})
		done <- err
	}()
	<-full
	<-claimed
	<-claimed
	released.Store(true)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if submitted.Load() != 20 {
		t.Errorf("only %d of 20 batches submitted after release", submitted.Load())
	}
}

func TestSchedulerPropagatesErrors(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	sentinel := errors.New("kernel fault")
	s := &Scheduler{Sys: sys, QueueDepth: 1}
	_, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(5)), make([]int, 50)),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if b.Seq == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the process error", err)
	}

	parseErr := errors.New("bad fasta")
	_, err = runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
		return parseErr
	}, func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if !errors.Is(err, parseErr) {
		t.Fatalf("got %v, want the produce error", err)
	}

	empty := &Scheduler{Sys: &simt.System{}}
	if _, err := runDBs(context.Background(), empty, nil, nil); err == nil {
		t.Error("scheduler with no devices accepted")
	}
}

func TestDeviceWorkerReusesProfileUploads(t *testing.T) {
	// The worker must score batches identically to a fresh per-batch
	// searcher while uploading the model tables only once.
	rng := rand.New(rand.NewSource(6))
	mp, vp := buildProfiles(t, 60, 80, 7)
	dev := simt.NewDevice(simt.TeslaK40())
	w := NewDeviceWorker(dev, MemAuto, 0, mp, vp)

	for batch := 0; batch < 3; batch++ {
		db := testDB(t, rng, 12, 120)
		msvRep, err := w.MSVBatch(db)
		if err != nil {
			t.Fatal(err)
		}
		vitRep, err := w.ViterbiBatch(db)
		if err != nil {
			t.Fatal(err)
		}

		fresh := simt.NewDevice(simt.TeslaK40())
		s := &Searcher{Dev: fresh, Mem: MemAuto}
		wantMSV, err := s.MSVSearch(UploadMSVProfile(fresh, mp), UploadDB(fresh, db))
		if err != nil {
			t.Fatal(err)
		}
		wantVit, err := s.ViterbiSearch(UploadVitProfile(fresh, vp), UploadDB(fresh, db))
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantMSV.Results {
			if msvRep.Results[i] != wantMSV.Results[i] {
				t.Fatalf("batch %d seq %d: MSV differs from fresh searcher", batch, i)
			}
			if vitRep.Results[i] != wantVit.Results[i] {
				t.Fatalf("batch %d seq %d: Viterbi differs from fresh searcher", batch, i)
			}
		}
	}
}

// TestSchedulerLatencyHistograms pins the first-class latency
// distributions: every processed attempt lands in BatchSeconds, every
// claim's wait in QueueWaitSeconds, and Record exports both as
// Prometheus histograms with p50/p99 gauges.
func TestSchedulerLatencyHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := simt.NewSystem(simt.GTX580(), 2)
	lens := make([]int, 12)
	for i := range lens {
		lens[i] = 20
	}
	s := &Scheduler{Sys: sys}
	rep, err := runDBs(context.Background(), s, feedBatches(rng, lens),
		func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchSeconds == nil || rep.BatchSeconds.Count != uint64(len(lens)) {
		t.Fatalf("BatchSeconds covers %+v, want %d observations", rep.BatchSeconds, len(lens))
	}
	if rep.QueueWaitSeconds == nil || rep.QueueWaitSeconds.Count != uint64(len(lens)) {
		t.Fatalf("QueueWaitSeconds covers %+v, want %d observations", rep.QueueWaitSeconds, len(lens))
	}
	if p50 := rep.BatchSeconds.Quantile(0.5); p50 <= 0 {
		t.Errorf("batch p50 = %g, want > 0", p50)
	}
	if p50, p99 := rep.BatchSeconds.Quantile(0.5), rep.BatchSeconds.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %g < p50 %g", p99, p50)
	}
	if !strings.Contains(rep.String(), "batch latency: p50") {
		t.Errorf("String() missing latency line:\n%s", rep.String())
	}

	reg := obs.NewRegistry()
	rep.Record(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE hmmer_sched_batch_seconds histogram",
		"hmmer_sched_batch_seconds_bucket{le=\"+Inf\"}",
		"hmmer_sched_batch_seconds_p50",
		"hmmer_sched_batch_seconds_p99",
		"# TYPE hmmer_sched_queue_wait_seconds histogram",
		"hmmer_sched_queue_wait_seconds_p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	if h, ok := reg.GetHist("hmmer_sched_batch_seconds"); !ok || h.Count != uint64(len(lens)) {
		t.Errorf("registry histogram count = %+v, want %d", h, len(lens))
	}
}

// TestRecordEmitsStableDeviceSeries pins the metrics contract that a
// clean run and a faulted run export the same series set: the
// per-device quarantined gauge (and failure counters) appear for every
// device with explicit zeros, even on a report whose FaultReport
// carries no per-device breakdown at all. tracecheck -require and
// presence-based Prometheus alerts depend on this.
func TestRecordEmitsStableDeviceSeries(t *testing.T) {
	rep := &ScheduleReport{
		Util: make([]DeviceUtilization, 3),
		// Deliberately no Faults.Devices: a hand-built or legacy report
		// must still export the full series set.
	}
	reg := obs.NewRegistry()
	rep.Record(reg)
	for dev := 0; dev < 3; dev++ {
		name := obs.WithLabel("hmmer_sched_device_quarantined", "device", dev)
		v, ok := reg.Get(name)
		if !ok {
			t.Fatalf("clean report did not emit %s", name)
		}
		if v != 0 {
			t.Fatalf("%s = %g, want 0", name, v)
		}
		if _, ok := reg.Get(obs.WithLabel("hmmer_sched_device_failures_total", "device", dev)); !ok {
			t.Fatalf("clean report did not emit failures_total for device %d", dev)
		}
	}

	// A quarantined device flips only its own gauge.
	rep.Faults.Devices = make([]DeviceFaultStats, 3)
	rep.Faults.Devices[1].Quarantined = true
	reg2 := obs.NewRegistry()
	rep.Record(reg2)
	for dev, want := range []float64{0, 1, 0} {
		name := obs.WithLabel("hmmer_sched_device_quarantined", "device", dev)
		if v, _ := reg2.Get(name); v != want {
			t.Errorf("%s = %g, want %g", name, v, want)
		}
	}
}
