package gpu

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// TestSchedulerDrainStopsSubmission closes the drain channel partway
// through the stream: the scheduler must refuse further submits, finish
// every batch already accepted, report Drained, and not surface an
// error to the caller.
func TestSchedulerDrainStopsSubmission(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := simt.NewSystem(simt.GTX580(), 2)
	drain := make(chan struct{})

	var mu sync.Mutex
	processed := map[int]bool{}
	s := &Scheduler{Sys: sys, Drain: drain}
	submitted := 0
	rep, err := runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
		for i := 0; i < 40; i++ {
			if i == 5 {
				close(drain)
			}
			db := seq.NewDatabase("drain")
			db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, 50)})
			if err := submit(db); err != nil {
				return err
			}
			submitted++
		}
		return nil
	}, func(devIdx int, dev *simt.Device, b Batch) error {
		mu.Lock()
		processed[b.Seq] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("drained run surfaced an error: %v", err)
	}
	if !rep.Drained {
		t.Fatal("report does not mark the run drained")
	}
	if submitted >= 40 {
		t.Fatal("drain did not stop the producer")
	}
	// Every accepted batch completed: no batch accepted then dropped.
	mu.Lock()
	defer mu.Unlock()
	if len(processed) != rep.Batches || len(processed) != submitted {
		t.Fatalf("processed %d batches, accepted %d, submitted %d",
			len(processed), rep.Batches, submitted)
	}
}

// TestSchedulerDrainBeforeStart closes the drain channel before the run
// begins: the first submit is refused, zero batches execute, and the
// run still returns cleanly with Drained set.
func TestSchedulerDrainBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sys := simt.NewSystem(simt.GTX580(), 2)
	drain := make(chan struct{})
	close(drain)

	s := &Scheduler{Sys: sys, Drain: drain}
	rep, err := runDBs(context.Background(), s, feedBatches(rng, []int{30, 30, 30}),
		func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if err != nil {
		t.Fatalf("pre-drained run surfaced an error: %v", err)
	}
	if !rep.Drained || rep.Batches != 0 {
		t.Fatalf("want Drained with 0 batches, got Drained=%v Batches=%d", rep.Drained, rep.Batches)
	}
}

// TestSchedulerDrainErrorIsSilenced checks that a producer returning
// ErrDraining verbatim (the normal propagation path through a streaming
// parser) is not reported as a run error.
func TestSchedulerDrainErrorIsSilenced(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys}
	_, err := runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
		return ErrDraining
	}, func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if err != nil {
		t.Fatalf("ErrDraining from the producer surfaced as %v", err)
	}
	// A different producer error still surfaces.
	boom := errors.New("boom")
	_, err = runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
		return boom
	}, func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("producer error lost: %v", err)
	}
}

// TestRunBatchesCallerOrdinals checks the resume-enabling contract of
// RunBatches: the caller owns batch identity, so skipped ordinals and
// non-contiguous offsets pass through to the processor untouched.
func TestRunBatchesCallerOrdinals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := simt.NewSystem(simt.GTX580(), 2)

	// Simulate a resume that already has batches 0 and 2: submit only 1
	// and 3, with offsets as the original chunking assigned them.
	want := map[int]int{1: 10, 3: 30}
	var mu sync.Mutex
	got := map[int]int{}
	s := &Scheduler{Sys: sys}
	rep, err := s.RunBatches(context.Background(), func(submit func(b Batch) error) error {
		for seqNo, off := range want {
			db := seq.NewDatabase("resume")
			db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, 40)})
			if err := submit(Batch{Seq: seqNo, Offset: off, DB: db}); err != nil {
				return err
			}
		}
		return nil
	}, func(devIdx int, dev *simt.Device, b Batch) error {
		mu.Lock()
		got[b.Seq] = b.Offset
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 2 {
		t.Fatalf("ran %d batches, want 2", rep.Batches)
	}
	mu.Lock()
	defer mu.Unlock()
	for seqNo, off := range want {
		if got[seqNo] != off {
			t.Errorf("batch %d processed with offset %d, want %d", seqNo, got[seqNo], off)
		}
	}
}

// TestRunBatchesRejectsNilDB checks submit validation.
func TestRunBatchesRejectsNilDB(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys}
	_, err := s.RunBatches(context.Background(), func(submit func(b Batch) error) error {
		return submit(Batch{Seq: 0, Offset: 0})
	}, func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if err == nil {
		t.Fatal("nil-DB batch accepted")
	}
}
