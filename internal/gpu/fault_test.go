package gpu

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// fakeClock makes backoff instantaneous while recording every delay
// the scheduler asked for, so retry tests run with no real sleeps.
type fakeClock struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (c *fakeClock) Now() time.Time { return time.Unix(0, 0) }

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.delays...)
}

// transientErr builds the fault a device launch surfaces for a failed
// launch.
func transientErr(dev string) error {
	return &simt.FaultError{Device: dev, Ordinal: 0, Err: simt.ErrLaunchFailed}
}

func TestSchedulerRetriesTransientFaultWithBackoff(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	clock := &fakeClock{}
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: clock, MaxRetries: 5, QuarantineAfter: -1,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 35 * time.Millisecond}}

	var attempts int32
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if atomic.AddInt32(&attempts, 1) <= 3 {
				return transientErr(dev.Track())
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4 (3 failures + success)", attempts)
	}
	if rep.Faults.Retries != 3 || rep.Faults.Devices[0].Retries != 3 {
		t.Errorf("retries = %d (device %d), want 3", rep.Faults.Retries, rep.Faults.Devices[0].Retries)
	}
	if rep.Faults.Devices[0].Failures != 3 {
		t.Errorf("device failures = %d, want 3", rep.Faults.Devices[0].Failures)
	}
	// Exponential backoff: 10ms, 20ms, then capped at 35ms.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond}
	got := clock.recorded()
	if len(got) != len(want) {
		t.Fatalf("backoff delays = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, got[i], want[i])
		}
	}
	if rep.Util[0].Batches != 1 {
		t.Errorf("device completed %d batches, want 1", rep.Util[0].Batches)
	}
}

func TestSchedulerRetryBudgetExhaustionFailsRun(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, MaxRetries: 2, QuarantineAfter: -1}}
	_, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			return transientErr(dev.Track())
		})
	if !errors.Is(err, simt.ErrLaunchFailed) {
		t.Fatalf("err = %v, want wrapped ErrLaunchFailed", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("err = %v, want attempt count in message", err)
	}
}

func TestSchedulerRetriesDisabled(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, MaxRetries: -1, QuarantineAfter: -1}}
	var attempts int32
	_, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			atomic.AddInt32(&attempts, 1)
			return transientErr(dev.Track())
		})
	if !errors.Is(err, simt.ErrLaunchFailed) {
		t.Fatalf("err = %v, want wrapped ErrLaunchFailed", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (retries disabled)", attempts)
	}
}

func TestSchedulerRequeuesToDifferentDevice(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	clock := &fakeClock{}
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: clock, QuarantineAfter: -1}}
	var mu sync.Mutex
	served := map[int][]int{} // batch -> device sequence
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			mu.Lock()
			served[b.Seq] = append(served[b.Seq], devIdx)
			first := len(served[b.Seq]) == 1
			mu.Unlock()
			if first {
				return transientErr(dev.Track())
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	devs := served[0]
	if len(devs) != 2 || devs[0] == devs[1] {
		t.Fatalf("batch served by devices %v, want a retry on the other device", devs)
	}
	if rep.Faults.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", rep.Faults.Requeues)
	}
}

func TestSchedulerQuarantinesAfterConsecutiveFailures(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, QuarantineAfter: 3, MaxRetries: 100}}
	// Device 0 always fails; device 1 succeeds but holds its first
	// batch until device 0 has tripped the breaker, so the failures are
	// guaranteed to land on device 0 regardless of host scheduling.
	var processed int32
	tripped := make(chan struct{})
	var fails int32
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50, 50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				if atomic.AddInt32(&fails, 1) == 3 {
					close(tripped)
				}
				return transientErr(dev.Track())
			}
			<-tripped
			atomic.AddInt32(&processed, 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faults.Devices[0].Quarantined || rep.Faults.Quarantines != 1 {
		t.Errorf("device 0 not quarantined: %+v", rep.Faults)
	}
	if rep.Faults.Devices[1].Quarantined {
		t.Error("healthy device 1 was quarantined")
	}
	if int(processed) != rep.Batches {
		t.Errorf("device 1 completed %d of %d batches", processed, rep.Batches)
	}
	if rep.Faults.Devices[0].Failures < 3 {
		t.Errorf("device 0 failures = %d, want >= 3 before quarantine", rep.Faults.Devices[0].Failures)
	}
	if rep.Util[0].Batches != 0 {
		t.Errorf("quarantined device credited %d completed batches", rep.Util[0].Batches)
	}
}

func TestSchedulerQuarantinesLostDeviceImmediately(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}}}
	// Device 1 holds its first batch until device 0 has faulted, so the
	// lost device is guaranteed to see (exactly) one batch.
	var failures int32
	lost := make(chan struct{})
	var lostOnce sync.Once
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				atomic.AddInt32(&failures, 1)
				lostOnce.Do(func() { close(lost) })
				return &simt.FaultError{Device: dev.Track(), Persistent: true, Err: simt.ErrDeviceLost}
			}
			<-lost
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Errorf("lost device was asked to process %d batches, want 1 (immediate quarantine)", failures)
	}
	if !rep.Faults.Devices[0].Quarantined {
		t.Error("lost device not quarantined")
	}
	// The device-lost requeue consumes no retry budget.
	if rep.Faults.Retries != 0 {
		t.Errorf("retries = %d, want 0 for a persistent fault", rep.Faults.Retries)
	}
}

func TestSchedulerAllQuarantinedFallsBackToHost(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}}}
	var fallbacks int32
	s.Fallback = func(b Batch) (bool, error) {
		if !b.Commit() {
			t.Error("fallback lost the commit race with no competing attempt")
			return false, nil
		}
		atomic.AddInt32(&fallbacks, 1)
		return true, nil
	}
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			return &simt.FaultError{Device: dev.Track(), Persistent: true, Err: simt.ErrDeviceLost}
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Quarantines != 2 {
		t.Errorf("quarantines = %d, want 2", rep.Faults.Quarantines)
	}
	if int(fallbacks) != rep.Batches || rep.Faults.Fallbacks != rep.Batches {
		t.Errorf("fallback completed %d (reported %d) of %d batches",
			fallbacks, rep.Faults.Fallbacks, rep.Batches)
	}
}

func TestSchedulerAllQuarantinedNoFallbackAborts(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}}}
	_, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			return &simt.FaultError{Device: dev.Track(), Persistent: true, Err: simt.ErrDeviceLost}
		})
	if !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined", err)
	}
}

func TestSchedulerWatchdogTimeout(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, BatchTimeout: 20 * time.Millisecond}
	release := make(chan struct{})
	defer close(release)
	// Device 1 waits for device 0 to claim (and wedge on) a batch, so
	// the watchdog provably fires on device 0.
	wedged := make(chan struct{})
	var wedgeOnce sync.Once
	var mu sync.Mutex
	committed := map[int]int{}
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				wedgeOnce.Do(func() { close(wedged) })
				<-release // wedge device 0's first attempt past the deadline
			} else {
				<-wedged
			}
			if b.Commit() {
				mu.Lock()
				committed[b.Seq]++
				mu.Unlock()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Timeouts != 1 || rep.Faults.Devices[0].Timeouts != 1 {
		t.Errorf("timeouts = %d (device %d), want 1", rep.Faults.Timeouts, rep.Faults.Devices[0].Timeouts)
	}
	if !rep.Faults.Devices[0].Quarantined {
		t.Error("timed-out device not quarantined")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(committed) != rep.Batches {
		t.Errorf("%d of %d batches committed", len(committed), rep.Batches)
	}
	for ord, n := range committed {
		if n != 1 {
			t.Errorf("batch %d committed %d times, want exactly once", ord, n)
		}
	}
}

// manualClock hands out watchdog channels that fire only when the
// test says so; fire blocks until the scheduler consumes the expiry,
// so a test can sequence "the watchdog has expired" deterministically.
type manualClock struct {
	armed chan chan time.Time
}

func newManualClock() *manualClock { return &manualClock{armed: make(chan chan time.Time, 16)} }

func (c *manualClock) Now() time.Time { return time.Unix(0, 0) }

func (c *manualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time)
	c.armed <- ch
	return ch
}

// fire expires the oldest armed watchdog, waiting first for one to be
// armed and then for the scheduler to consume the expiry.
func (c *manualClock) fire() { <-c.armed <- time.Time{} }

// An attempt that commits its result just before the watchdog expires
// must win: the scheduler waits for the in-flight merge and counts the
// batch complete instead of requeueing it (which would double-run the
// batch and let the run finish under a still-pending merge), and
// quarantining the last device on the stream's final batch must not
// abort the fully-merged run.
func TestSchedulerWatchdogLateCommitCompletesBatch(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	clock := newManualClock()
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: clock}, BatchTimeout: time.Second}
	committed := make(chan struct{})
	release := make(chan struct{})
	produced := make(chan struct{})
	feed := feedBatches(rand.New(rand.NewSource(1)), []int{50})
	var calls, merges int32
	go func() {
		<-committed
		clock.fire() // expire the watchdog after the attempt committed
		close(release)
	}()
	rep, err := runDBs(context.Background(), s, func(submit func(*seq.Database) error) error {
		defer close(produced)
		return feed(submit)
	},
		func(devIdx int, dev *simt.Device, b Batch) error {
			atomic.AddInt32(&calls, 1)
			// Hold the commit until the producer is done, so the
			// quarantine below sees no outstanding work.
			<-produced
			if b.Commit() {
				atomic.AddInt32(&merges, 1)
			}
			close(committed)
			<-release // keep the attempt running past the deadline
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || merges != 1 {
		t.Errorf("process ran %d times with %d merges, want exactly one of each", calls, merges)
	}
	if rep.Faults.Timeouts != 1 || rep.Faults.Devices[0].Timeouts != 1 {
		t.Errorf("timeouts = %d (device %d), want 1", rep.Faults.Timeouts, rep.Faults.Devices[0].Timeouts)
	}
	if !rep.Faults.Devices[0].Quarantined {
		t.Error("device that blew its deadline was not quarantined")
	}
	if rep.Util[0].Batches != 1 {
		t.Errorf("device credited %d batches, want 1 (the late-committed batch)", rep.Util[0].Batches)
	}
}

// A quarantine trip is a device-health event: the batch that tripped
// the breaker must be requeued without consuming its retry budget
// (matching the device-lost path), so a batch bounced off flaky
// devices is not aborted for their failures.
func TestSchedulerQuarantineTripPreservesRetryBudget(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, QuarantineAfter: 2, MaxRetries: 1}}
	// Device 0 fails every attempt, tripping its breaker on the second;
	// device 1 (gated until the trip, so the trip provably lands on
	// device 0) then fails the tripped batch once more before letting
	// it through. With the trip budget-free the batch has spent 1 of
	// its 1 retries and completes; charging the trip would abort the
	// run.
	var mu sync.Mutex
	dev0Fails := 0
	tripSeq := -1
	dev1FailedTrip := false
	tripped := make(chan struct{})
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				mu.Lock()
				dev0Fails++
				if dev0Fails == 2 {
					tripSeq = b.Seq
					close(tripped)
				}
				mu.Unlock()
				return transientErr(dev.Track())
			}
			<-tripped
			mu.Lock()
			fail := b.Seq == tripSeq && !dev1FailedTrip
			if fail {
				dev1FailedTrip = true
			}
			mu.Unlock()
			if fail {
				return transientErr(dev.Track())
			}
			return nil
		})
	if err != nil {
		t.Fatalf("run aborted: %v (the trip batch was charged a retry it did not spend)", err)
	}
	if rep.Faults.Retries != 2 {
		t.Errorf("retries = %d, want 2 (the trip itself is budget-free)", rep.Faults.Retries)
	}
	if !rep.Faults.Devices[0].Quarantined || rep.Faults.Devices[1].Quarantined {
		t.Errorf("quarantine = %+v, want device 0 only", rep.Faults.Devices)
	}
	if rep.Util[1].Batches != rep.Batches {
		t.Errorf("device 1 completed %d of %d batches", rep.Util[1].Batches, rep.Batches)
	}
}

// With retries disabled, a transient fault that trips the breaker
// still requeues its batch: the trip spends no budget, so the run
// completes on the other device instead of failing.
func TestSchedulerBreakerTripSpendsNoBudget(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, QuarantineAfter: 1, MaxRetries: -1}}
	// Device 1 holds its batch until device 0 has failed one, so the
	// trip provably lands on device 0.
	tripped := make(chan struct{})
	var once sync.Once
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				once.Do(func() { close(tripped) })
				return transientErr(dev.Track())
			}
			<-tripped
			return nil
		})
	if err != nil {
		t.Fatalf("run aborted: %v (the breaker trip spent retry budget)", err)
	}
	if !rep.Faults.Devices[0].Quarantined || rep.Faults.Retries != 0 {
		t.Errorf("faults = %+v, want device 0 quarantined and no retries", rep.Faults)
	}
	if rep.Util[1].Batches != 2 {
		t.Errorf("device 1 completed %d of 2 batches", rep.Util[1].Batches)
	}
}

// The first exec cancels the run. Every exec then holds until the run
// has refused a submit, so the cancellation is seen before the run can
// drain: backpressure stops the producer after three of its 100
// batches, with two held by the devices and one pending.
func TestSchedulerContextCancellation(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, QueueDepth: 1}
	ctx, cancel := context.WithCancel(context.Background())
	refused := make(chan struct{})
	_, err := runDBs(ctx, s,
		func(submit func(db *seq.Database) error) error {
			defer close(refused)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 100; i++ {
				db := seq.NewDatabase("ctx")
				db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, 50)})
				if err := submit(db); err != nil {
					return err
				}
			}
			return nil
		},
		func(devIdx int, dev *simt.Device, b Batch) error {
			cancel()
			<-refused
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A worker that wakes to an aborted run must not claim and process
// batches that are still pending.
func TestSchedulerAbortStopsQueuedWork(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys, QueueDepth: 8}
	bang := errors.New("bang")
	var processed int32
	_, err := runDBs(context.Background(), s,
		func(submit func(db *seq.Database) error) error {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 8; i++ {
				db := seq.NewDatabase("abort")
				db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rng, 50)})
				if err := submit(db); err != nil {
					return err
				}
			}
			return nil
		},
		func(devIdx int, dev *simt.Device, b Batch) error {
			atomic.AddInt32(&processed, 1)
			return bang
		})
	if !errors.Is(err, bang) {
		t.Fatalf("err = %v, want bang", err)
	}
	if processed != 1 {
		t.Errorf("processed %d batches after the first fatal error, want 1", processed)
	}
}

// tickClock advances a second on every reading, so any wait the
// scheduler books spans at least a second.
type tickClock struct{ ticks atomic.Int64 }

func (c *tickClock) Now() time.Time { return time.Unix(c.ticks.Add(1), 0) }

func (c *tickClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// QueueWait must reflect starvation while work was still flowing, not
// the final wait that ends in shutdown.
func TestSchedulerQueueWaitExcludesShutdown(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 4)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &tickClock{}}}
	rep, err := runDBs(context.Background(), s,
		func(submit func(db *seq.Database) error) error {
			db := seq.NewDatabase("qw")
			db.Add(&seq.Sequence{Name: "b", Residues: randomSeq(rand.New(rand.NewSource(1)), 50)})
			return submit(db)
		},
		func(devIdx int, dev *simt.Device, b Batch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Three of four workers never claim a batch; their park until the
	// stream ends must not be booked as starvation.
	for i, u := range rep.Util {
		if u.Batches == 0 && u.QueueWait > 10*time.Millisecond {
			t.Errorf("idle device %d booked %v queue-wait during shutdown", i, u.QueueWait)
		}
	}
}

func TestScheduleReportFaultRendering(t *testing.T) {
	rep := &ScheduleReport{
		Batches: 4, Seqs: 4, Residues: 200, Wall: time.Second,
		Util: make([]DeviceUtilization, 2),
		Faults: FaultReport{
			Retries: 3, Requeues: 2, Quarantines: 1, Fallbacks: 1, Timeouts: 1,
			Devices: []DeviceFaultStats{
				{Failures: 4, Retries: 3, Timeouts: 1, Quarantined: true},
				{},
			},
		},
	}
	out := rep.String()
	for _, want := range []string{"3 retries", "2 requeues", "1 devices quarantined", "1 cpu-fallback", "quarantined"} {
		if !strings.Contains(out, want) {
			t.Errorf("report %q missing %q", out, want)
		}
	}

	// SDC lines are opt-in: a fail-stop-only report must not mention
	// silent corruption, and a clean report renders nothing at all.
	if strings.Contains(out, "silent data corruption") || strings.Contains(out, "sdc") {
		t.Errorf("fail-stop-only report mentions SDC: %q", out)
	}

	clean := &ScheduleReport{Batches: 1, Util: make([]DeviceUtilization, 1)}
	if strings.Contains(clean.String(), "faults:") {
		t.Error("clean report renders a faults line")
	}

	sdc := &ScheduleReport{
		Batches: 4, Seqs: 4, Residues: 200, Wall: time.Second,
		Util: make([]DeviceUtilization, 2),
		Faults: FaultReport{
			SDCDetected: 2, SDCReruns: 2,
			Devices: []DeviceFaultStats{
				{Failures: 2, SDCs: 2},
				{},
			},
		},
	}
	sout := sdc.String()
	for _, want := range []string{
		"silent data corruption: 2 detected, 2 re-executed",
		"device 0: 2 failures (0 retried, 0 timeouts, 2 sdc)",
	} {
		if !strings.Contains(sout, want) {
			t.Errorf("SDC report %q missing %q", sout, want)
		}
	}

	reg := obs.NewRegistry()
	rep.Record(reg)
	for name, want := range map[string]float64{
		"hmmer_sched_retries_total":          3,
		"hmmer_sched_requeues_total":         2,
		"hmmer_sched_batch_timeouts_total":   1,
		"hmmer_sched_fallback_batches_total": 1,
	} {
		if got, ok := reg.Get(name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	qname := obs.WithLabel("hmmer_sched_device_quarantined", "device", "0")
	if got, ok := reg.Get(qname); !ok || got != 1 {
		t.Errorf("%s = %v (present %v), want 1", qname, got, ok)
	}
	if got, ok := reg.Get(obs.WithLabel("hmmer_sched_device_quarantined", "device", "1")); !ok || got != 0 {
		t.Errorf("healthy device quarantine gauge = %v (present %v), want 0", got, ok)
	}

	sreg := obs.NewRegistry()
	sdc.Record(sreg)
	for name, want := range map[string]float64{
		"hmmer_sched_sdc_detected_total":                             2,
		"hmmer_sched_sdc_reruns_total":                               2,
		obs.WithLabel("hmmer_sched_device_sdc_total", "device", "0"): 2,
		obs.WithLabel("hmmer_sched_device_sdc_total", "device", "1"): 0,
	} {
		if got, ok := sreg.Get(name); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestClassifyFault(t *testing.T) {
	cases := []struct {
		err  error
		want faultClass
	}{
		{&simt.FaultError{Device: "d", Err: simt.ErrLaunchFailed}, faultTransient},
		{&simt.FaultError{Device: "d", Err: simt.ErrDeviceHung}, faultTransient},
		{&simt.FaultError{Device: "d", Persistent: true, Err: simt.ErrDeviceLost}, faultDeviceFatal},
		{fmt.Errorf("wrap: %w", ErrBatchTimeout), faultDeviceFatal},
		{&simt.KernelPanicError{Device: "d", Block: -1}, faultRunFatal},
		{&integrity.Error{Stage: "msv", Seq: 3, Detail: "off grid"}, faultIntegrity},
		{fmt.Errorf("batch 2: %w", &integrity.Error{Stage: "hit", Seq: -1, Detail: "ordering"}), faultIntegrity},
		{errors.New("mystery"), faultRunFatal},
	}
	for _, c := range cases {
		if got := classifyFault(c.err); got != c.want {
			t.Errorf("classifyFault(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// integrityErr builds the error a process callback surfaces when a
// batch's results fail an integrity check.
func integrityErr(b Batch) error {
	return fmt.Errorf("batch %d: %w", b.Seq, &integrity.Error{Stage: "msv", Seq: 0, Detail: "score off grid"})
}

// An integrity failure with a DMR callback configured must hand the
// batch to the callback, which commits the replacement result; the
// corrupt attempt never reaches the merge.
func TestSchedulerIntegrityFailureRunsDMR(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	var dmrRuns, committed int32
	s := &Scheduler{Sys: sys,
		Policy: dispatch.Policy{Clock: &fakeClock{}, QuarantineAfter: -1},
		DMR: func(b Batch) (bool, error) {
			atomic.AddInt32(&dmrRuns, 1)
			if b.Commit() {
				atomic.AddInt32(&committed, 1)
				return true, nil
			}
			return false, nil
		}}
	var attempts int32
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 60}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if atomic.AddInt32(&attempts, 1) == 1 {
				return integrityErr(b)
			}
			if !b.Commit() {
				t.Error("healthy attempt lost its commit token")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if dmrRuns != 1 || committed != 1 {
		t.Errorf("DMR runs = %d (committed %d), want 1 and 1", dmrRuns, committed)
	}
	if rep.Faults.SDCDetected != 1 || rep.Faults.SDCReruns != 1 {
		t.Errorf("SDC detected/reruns = %d/%d, want 1/1", rep.Faults.SDCDetected, rep.Faults.SDCReruns)
	}
	if rep.Faults.Devices[0].SDCs != 1 {
		t.Errorf("device SDCs = %d, want 1", rep.Faults.Devices[0].SDCs)
	}
	// The DMR-resolved batch must not be retried on the device.
	if attempts != 2 {
		t.Errorf("device attempts = %d, want 2 (one corrupt, one healthy batch)", attempts)
	}
}

// Without DMR the scheduler discards the corrupt result and re-executes
// the batch on retry budget, preferring a different device.
func TestSchedulerIntegrityFailureRequeuesWithoutDMR(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, MaxRetries: 5, QuarantineAfter: -1}}
	var mu sync.Mutex
	devs := []int{}
	first := true
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			mu.Lock()
			devs = append(devs, devIdx)
			corrupt := first
			first = false
			mu.Unlock()
			if corrupt {
				return integrityErr(b)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.SDCDetected != 1 || rep.Faults.SDCReruns != 1 {
		t.Errorf("SDC detected/reruns = %d/%d, want 1/1", rep.Faults.SDCDetected, rep.Faults.SDCReruns)
	}
	if len(devs) != 2 || devs[0] == devs[1] {
		t.Errorf("device sequence = %v, want re-execution on the other device", devs)
	}
}

// A device that keeps corrupting results trips the quarantine breaker
// like any other repeat offender; the stream drains on the healthy
// device.
func TestSchedulerIntegrityRepeatOffenderQuarantined(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 2)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, MaxRetries: 20, QuarantineAfter: 2}}
	// The healthy device waits for the offender's second strike before
	// completing anything, so it cannot drain the stream while device 0
	// is still one failure short of the breaker.
	var strikes int32
	tripped := make(chan struct{})
	var once sync.Once
	rep, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50, 50, 50, 50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			if devIdx == 0 {
				if atomic.AddInt32(&strikes, 1) >= 2 {
					once.Do(func() { close(tripped) })
				}
				return integrityErr(b)
			}
			<-tripped
			if !b.Commit() {
				t.Error("healthy attempt lost its commit token")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Faults.Devices[0].Quarantined {
		t.Error("silently corrupting device 0 not quarantined")
	}
	if rep.Faults.Devices[0].SDCs < 2 {
		t.Errorf("device 0 SDCs = %d, want >= 2 (breaker threshold)", rep.Faults.Devices[0].SDCs)
	}
	if rep.Util[0].Batches != 0 {
		t.Errorf("corrupting device credited %d completed batches", rep.Util[0].Batches)
	}
	if rep.Util[1].Batches != 4 {
		t.Errorf("healthy device completed %d of 4 batches", rep.Util[1].Batches)
	}
}

// Integrity retry budget is finite: a batch whose every re-execution
// also fails integrity must fail the run with the integrity error.
func TestSchedulerIntegrityBudgetExhaustionFailsRun(t *testing.T) {
	sys := simt.NewSystem(simt.GTX580(), 1)
	s := &Scheduler{Sys: sys, Policy: dispatch.Policy{Clock: &fakeClock{}, MaxRetries: 2, QuarantineAfter: -1}}
	_, err := runDBs(context.Background(), s, feedBatches(rand.New(rand.NewSource(1)), []int{50}),
		func(devIdx int, dev *simt.Device, b Batch) error {
			return integrityErr(b)
		})
	var ie *integrity.Error
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want wrapped *integrity.Error", err)
	}
	if !strings.Contains(err.Error(), "failed integrity checks after 3 attempts") {
		t.Errorf("err = %v, want attempt count in message", err)
	}
}
