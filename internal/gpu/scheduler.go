package gpu

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// Batch is one unit of streamed work (see dispatch.Batch); process
// callbacks get it with Trace set to the batch's span on the serving
// device's track.
type Batch = dispatch.Batch

// DeviceUtilization is one device's share of a scheduled run — the
// observable load-balance picture the static Partition split cannot
// provide.
type DeviceUtilization struct {
	// Busy is the wall time the device's worker spent processing
	// batches (upload + kernel execution + host-side post-filtering),
	// including attempts that failed.
	Busy time.Duration
	// QueueWait is the wall time the device's worker spent blocked on
	// the work queue waiting for a batch it then claimed — scheduler
	// starvation, as distinct from finishing quickly because its
	// batches were short. Waits that end in shutdown, abort or
	// quarantine are not starvation and are not counted.
	QueueWait time.Duration
	// Residues is the number of residues the device processed.
	Residues int64
	// Batches is the number of batches the device completed.
	Batches int
}

// BusyFraction is Busy over the run's wall time (0 when wall is 0).
func (u DeviceUtilization) BusyFraction(wall time.Duration) float64 {
	return obs.Ratio(float64(u.Busy), float64(wall))
}

// ScheduleReport is the outcome of one Scheduler.RunBatches.
type ScheduleReport struct {
	// Wall is the end-to-end wall time of the run (parsing overlapped
	// with processing).
	Wall time.Duration
	// Batches and Seqs and Residues total the submitted work.
	Batches  int
	Seqs     int
	Residues int64
	// Drained reports that the run stopped early at the producer's
	// request: the Drain channel closed and at least one batch was
	// refused by submit. Every batch counted above was still fully
	// processed and committed.
	Drained bool
	// Util is the per-device utilization, indexed by device.
	Util []DeviceUtilization
	// Faults summarises the run's fault handling (zero when clean).
	Faults FaultReport
	// BatchSeconds is the distribution of per-batch processing attempt
	// durations across all devices (failed attempts included — a retry
	// storm shows up as a fat tail, exactly what the mean hides).
	BatchSeconds *obs.Hist
	// QueueWaitSeconds is the distribution of the waits counted by
	// DeviceUtilization.QueueWait: how long a worker sat idle before
	// claiming each batch.
	QueueWaitSeconds *obs.Hist
}

// String renders the schedule: totals, then one line per device with
// busy/queue-wait splits, then the fault summary if the run saw any
// faults. Undefined ratios (a zero-wall or zero-work run) render as
// "-", never NaN.
func (r *ScheduleReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d batches, %d seqs, %d residues in %v",
		r.Batches, r.Seqs, r.Residues, r.Wall)
	for i, u := range r.Util {
		fmt.Fprintf(&b, "\n  device %d: %d batches, %d residues (%s), busy %v (%s of wall), queue-wait %v",
			i, u.Batches, u.Residues,
			obs.Pct(float64(u.Residues), float64(r.Residues)),
			u.Busy, obs.Pct(float64(u.Busy), float64(r.Wall)), u.QueueWait)
	}
	if r.BatchSeconds != nil && r.BatchSeconds.Count > 0 {
		fmt.Fprintf(&b, "\n  batch latency: p50 %.3fs p99 %.3fs, queue-wait p99 %.3fs",
			r.BatchSeconds.Quantile(0.5), r.BatchSeconds.Quantile(0.99),
			r.QueueWaitSeconds.Quantile(0.99))
	}
	if r.Faults.Any() {
		fmt.Fprintf(&b, "\n  %s", r.Faults.String())
	}
	return b.String()
}

// Record merges the schedule into reg under the sched subsystem:
// totals, wall, per-device busy/queue-wait/busy-fraction series, and
// the fault counters (always emitted, so a clean run exports explicit
// zeros that dashboards can alert on).
func (r *ScheduleReport) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.AddInt("hmmer_sched_batches_total", int64(r.Batches))
	reg.AddInt("hmmer_sched_seqs_total", int64(r.Seqs))
	reg.AddInt("hmmer_sched_residues_total", r.Residues)
	reg.Set("hmmer_sched_wall_seconds", r.Wall.Seconds())
	reg.AddInt("hmmer_sched_devices", int64(len(r.Util)))
	reg.AddInt("hmmer_sched_retries_total", int64(r.Faults.Retries))
	reg.AddInt("hmmer_sched_requeues_total", int64(r.Faults.Requeues))
	reg.AddInt("hmmer_sched_batch_timeouts_total", int64(r.Faults.Timeouts))
	reg.AddInt("hmmer_sched_fallback_batches_total", int64(r.Faults.Fallbacks))
	reg.AddInt("hmmer_sched_sdc_detected_total", int64(r.Faults.SDCDetected))
	reg.AddInt("hmmer_sched_sdc_reruns_total", int64(r.Faults.SDCReruns))
	for i, u := range r.Util {
		dev := fmt.Sprint(i)
		reg.Add(obs.WithLabel("hmmer_sched_device_busy_seconds_total", "device", dev), u.Busy.Seconds())
		reg.Add(obs.WithLabel("hmmer_sched_device_queue_wait_seconds_total", "device", dev), u.QueueWait.Seconds())
		reg.AddInt(obs.WithLabel("hmmer_sched_device_batches_total", "device", dev), int64(u.Batches))
		reg.AddInt(obs.WithLabel("hmmer_sched_device_residues_total", "device", dev), u.Residues)
		reg.Set(obs.WithLabel("hmmer_sched_device_busy_fraction", "device", dev), u.BusyFraction(r.Wall))
	}
	if r.BatchSeconds != nil && r.BatchSeconds.Count > 0 {
		reg.MergeHist("hmmer_sched_batch_seconds", r.BatchSeconds)
		reg.Set("hmmer_sched_batch_seconds_p50", r.BatchSeconds.Quantile(0.5))
		reg.Set("hmmer_sched_batch_seconds_p99", r.BatchSeconds.Quantile(0.99))
	}
	if r.QueueWaitSeconds != nil && r.QueueWaitSeconds.Count > 0 {
		reg.MergeHist("hmmer_sched_queue_wait_seconds", r.QueueWaitSeconds)
		reg.Set("hmmer_sched_queue_wait_seconds_p50", r.QueueWaitSeconds.Quantile(0.5))
		reg.Set("hmmer_sched_queue_wait_seconds_p99", r.QueueWaitSeconds.Quantile(0.99))
	}
	// The per-device fault series are emitted for every device the run
	// used, not just devices with fault activity — and not only when a
	// FaultReport happens to carry a per-device breakdown. A report
	// built without one (len(Faults.Devices) < len(Util)) still exports
	// explicit zeros, so tracecheck and Prometheus scrapes always see
	// the same series set and "healthy" is distinguishable from "not
	// scraped". ScheduleReport.String may elide quiet devices; metrics
	// must not.
	for i := 0; i < len(r.Util) || i < len(r.Faults.Devices); i++ {
		var d DeviceFaultStats
		if i < len(r.Faults.Devices) {
			d = r.Faults.Devices[i]
		}
		dev := fmt.Sprint(i)
		reg.Set(obs.WithLabel("hmmer_sched_device_quarantined", "device", dev), obs.Flag(d.Quarantined))
		reg.AddInt(obs.WithLabel("hmmer_sched_device_failures_total", "device", dev), int64(d.Failures))
		reg.AddInt(obs.WithLabel("hmmer_sched_device_sdc_total", "device", dev), int64(d.SDCs))
	}
	reg.Help("hmmer_sched_device_queue_wait_seconds_total",
		"wall time the device worker spent blocked on the work queue (starvation)")
	reg.Help("hmmer_sched_batch_seconds",
		"per-batch processing attempt duration across all devices")
	reg.Help("hmmer_sched_queue_wait_seconds",
		"per-claim wait a device worker spent idle on the work queue")
	reg.Help("hmmer_sched_device_quarantined",
		"1 when the device was quarantined by the circuit breaker during the run")
	reg.Help("hmmer_sched_sdc_detected_total",
		"batches whose device results failed an integrity check (silent data corruption)")
	reg.Help("hmmer_sched_sdc_reruns_total",
		"re-executions that replaced discarded corrupt batch results")
}

// Scheduler feeds a stream of batches to the devices of a System
// through the dispatch core's bounded pending list: the producer
// (host-side parsing) blocks once QueueDepth batches are parsed but
// unprocessed (backpressure, so input memory stays bounded), and each
// batch is claimed by whichever device worker gets to it first — the
// dynamic load balancing that replaces the static Partition split for
// streamed input (CUDAMPF++'s point about proactive resource
// exhaustion: throughput at scale comes from keeping every device
// saturated, not from one up-front split).
//
// The retry, breaker and host-fallback policy is dispatch's; the
// scheduler adds what is device-specific: classifyFault's triage of
// simt faults, the per-batch watchdog, DMR, and the per-device
// ScheduleReport. Kernel panics are deterministic bugs, never retried:
// they abort the run as errors.
type Scheduler struct {
	Sys *simt.System
	// QueueDepth bounds parsed-but-unprocessed batches; 0 means two
	// per device (enough to hide parse latency without unbounding
	// memory).
	QueueDepth int
	// Trace, when non-nil, parents one span per batch attempt on the
	// serving device's track (the per-device gantt a Chrome trace
	// renders), handed to process as Batch.Trace.
	Trace *obs.Span

	// Policy is the run's retry, breaker and backoff policy, and its
	// clock. A transient fault spends retry budget; persistent
	// device-lost faults quarantine whatever the breaker says.
	Policy dispatch.Policy
	// BatchTimeout is the per-batch watchdog: an attempt that has not
	// returned within it is abandoned, the device quarantined, and the
	// batch requeued with a fresh commit token (the watchdog claims the
	// old token, so the abandoned attempt can never merge; if the
	// abandoned attempt committed just before the watchdog, its merge
	// is awaited and the batch counts as complete instead). 0 disables
	// the watchdog.
	BatchTimeout time.Duration
	// Fallback, when non-nil, processes a batch on the host CPU once
	// every device is quarantined (dispatch.Config.Fallback).
	Fallback func(b Batch) (committed bool, err error)
	// DMR, when non-nil, re-executes on the host CPU a batch whose
	// device results failed an integrity check — dual-modular
	// redundancy on suspicion only, so the clean path pays nothing —
	// under Fallback's contract. When nil, an integrity failure spends
	// retry budget on a different device instead.
	DMR func(b Batch) (committed bool, err error)
	// Drain, when non-nil, requests a graceful stop once closed:
	// submitted batches finish (processed, committed, journaled), and
	// submit refuses further batches with ErrDraining. This is the
	// SIGINT path; the run returns with ScheduleReport.Drained set.
	Drain <-chan struct{}
}

// schedRun is one RunBatches: the dispatch core and the report the
// device workers keep under its lock.
type schedRun struct {
	s     *Scheduler
	run   *dispatch.Run
	rep   *ScheduleReport
	clock dispatch.Clock
}

// runBatch executes one processing attempt, racing it against the
// per-batch watchdog when one is configured. On expiry the watchdog
// claims the batch's commit token, so the abandoned attempt — which
// keeps running on its goroutine — can never merge and its late
// result is discarded wherever it lands. If the attempt committed
// first, its merge is already in flight: runBatch waits for it to
// land (the run must not finish under it) and reports the batch
// complete via errLateCommit.
func (st *schedRun) runBatch(i int, dev *simt.Device, b Batch,
	process func(devIdx int, dev *simt.Device, b Batch) error) error {
	if st.s.BatchTimeout <= 0 {
		return process(i, dev, b)
	}
	done := make(chan error, 1)
	go func() { done <- process(i, dev, b) }()
	select {
	case err := <-done:
		return err
	case <-st.clock.After(st.s.BatchTimeout):
		if b.Commit() {
			return fmt.Errorf("gpu: batch %d on device %d: %w after %v", b.Seq, i, ErrBatchTimeout, st.s.BatchTimeout)
		}
		<-done
		return errLateCommit
	}
}

// runWorker is device i's executor: claim, process, settle. It exits
// on abort, on quarantine of its device, or when the stream is fully
// drained.
func (st *schedRun) runWorker(i int, dev *simt.Device,
	process func(devIdx int, dev *simt.Device, b Batch) error) {
	s, r := st.s, st.run
	util, dstats := &st.rep.Util[i], &st.rep.Faults.Devices[i]
	r.Lock()
	defer r.Unlock()
	for {
		tw := st.clock.Now()
		att := r.Claim(i, nil)
		if att == nil {
			return
		}
		// Only a wait that ends in claiming work counts as starvation;
		// the shutdown/abort/quarantine exits accrue nothing.
		wait := st.clock.Now().Sub(tw)
		util.QueueWait += wait
		st.rep.QueueWaitSeconds.Observe(wait.Seconds())
		if att.Moved(i) {
			st.rep.Faults.Requeues++
		}
		r.Unlock()

		att.Batch.Trace = s.Trace.ChildOn(dev.Track(), fmt.Sprintf("batch %d", att.Batch.Seq),
			obs.Int("batch", int64(att.Batch.Seq)),
			obs.Int("offset", int64(att.Batch.Offset)),
			obs.Int("seqs", int64(att.Batch.DB.NumSeqs())),
			obs.Int("residues", att.Batch.DB.TotalResidues()),
			obs.Int("attempt", int64(att.Tries)))
		b := att.Batch
		t0 := time.Now()
		err := st.runBatch(i, dev, b, process)
		dur := time.Since(t0)
		util.Busy += dur
		if err != nil {
			b.Trace.Annotate(obs.String("error", err.Error()))
		}
		b.Trace.End()

		r.Lock()
		st.rep.BatchSeconds.Observe(dur.Seconds())
		out, class, err := st.outcome(i, att, err)
		if !r.Settle(i, att, out, err) {
			return
		}
		if out == dispatch.Retry {
			if class == faultIntegrity {
				st.rep.Faults.SDCReruns++
			} else {
				st.rep.Faults.Retries++
				dstats.Retries++
			}
		}
	}
}

// outcome books device i's result for att and maps it to the core's
// outcome. For Retry the returned error is the one that ends the run
// should the batch's budget run out.
func (st *schedRun) outcome(i int, att *dispatch.Attempt, err error) (dispatch.Outcome, faultClass, error) {
	util, dstats := &st.rep.Util[i], &st.rep.Faults.Devices[i]
	b := att.Batch
	if err == nil {
		util.Residues += b.DB.TotalResidues()
		util.Batches++
		return dispatch.Done, faultRunFatal, nil
	}
	if errors.Is(err, errLateCommit) {
		// The watchdog expired, but the abandoned attempt had already
		// committed and merged: the batch is complete on this device.
		// The deadline was still blown, so the timeout is recorded and
		// the device quarantined.
		util.Residues += b.DB.TotalResidues()
		util.Batches++
		st.rep.Faults.Timeouts++
		dstats.Timeouts++
		return dispatch.LateDone, faultRunFatal, nil
	}
	dstats.Failures++
	class := classifyFault(err)
	switch class {
	case faultDeviceFatal:
		// The device is gone (lost) or suspect (a watchdog-abandoned
		// attempt may still be running on it).
		if errors.Is(err, ErrBatchTimeout) {
			st.rep.Faults.Timeouts++
			dstats.Timeouts++
			return dispatch.Burned, class, err
		}
		return dispatch.Lost, class, err
	case faultIntegrity:
		// The launch succeeded but the results are corrupt: the failed
		// attempt returned before committing, so the corrupt result can
		// never land. A card that silently corrupts takes a health
		// strike; host DMR replaces the result when configured,
		// otherwise a different device does, on retry budget.
		st.rep.Faults.SDCDetected++
		dstats.SDCs++
		if st.s.DMR != nil {
			return dispatch.Rerun, class, err
		}
		return dispatch.Retry, class, fmt.Errorf("gpu: batch %d failed integrity checks after %d attempts: %w", b.Seq, att.Tries+1, err)
	case faultTransient:
		return dispatch.Retry, class, fmt.Errorf("gpu: batch %d failed after %d attempts: %w", b.Seq, att.Tries+1, err)
	}
	return dispatch.Fatal, class, err
}

// dmr re-executes a corrupt batch on the host, under the device span
// of the attempt whose result it replaces.
func (st *schedRun) dmr(b Batch) (bool, error) {
	span := st.s.Trace.ChildOn("host", fmt.Sprintf("batch %d (dmr re-execution)", b.Seq),
		obs.Int("batch", int64(b.Seq)),
		obs.Int("offset", int64(b.Offset)),
		obs.Bool("sdc_rerun", true))
	defer span.End()
	return st.s.DMR(b)
}

// fallback runs one batch on the host CPU once every device is
// quarantined.
func (st *schedRun) fallback(b Batch) (bool, error) {
	b.Trace = st.s.Trace.ChildOn("host", fmt.Sprintf("batch %d (cpu fallback)", b.Seq),
		obs.Int("batch", int64(b.Seq)),
		obs.Int("offset", int64(b.Offset)),
		obs.Bool("cpu_fallback", true))
	t0 := time.Now()
	committed, err := st.s.Fallback(b)
	dur := time.Since(t0)
	b.Trace.End()
	st.run.Lock()
	st.rep.BatchSeconds.Observe(dur.Seconds())
	st.run.Unlock()
	return committed, err
}

// RunBatches overlaps produce with per-device processing. produce
// must call submit once per batch, in stream order, with fully-formed
// Batch values (Seq, Offset, DB); the scheduler only attaches the
// merge token. Resumed runs skip journaled batches, so ordinals may
// have holes and offsets follow the original chunking. submit blocks
// for backpressure and returns an error once the run is aborted.
// process runs concurrently, one invocation at a time per healthy
// device, and must merge results only after Batch.Commit reports true.
// Transient device faults are retried per the scheduler's
// fault-tolerance knobs; the first unrecoverable error (from produce,
// process, or ctx) aborts the run and is returned.
//
// A closed Drain channel stops the run gracefully: submit refuses the
// batch with ErrDraining (unwrapped, so the producer can detect it),
// already-submitted batches complete, and produce's ErrDraining return
// is treated as a clean stop with ScheduleReport.Drained set.
func (s *Scheduler) RunBatches(ctx context.Context,
	produce func(submit func(b Batch) error) error,
	process func(devIdx int, dev *simt.Device, b Batch) error,
) (*ScheduleReport, error) {
	if s.Sys == nil || len(s.Sys.Devices) == 0 {
		return nil, fmt.Errorf("gpu: scheduler has no devices")
	}
	n := len(s.Sys.Devices)
	rep := &ScheduleReport{
		Util:             make([]DeviceUtilization, n),
		Faults:           FaultReport{Devices: make([]DeviceFaultStats, n)},
		BatchSeconds:     obs.NewHist(obs.LatencyBuckets()),
		QueueWaitSeconds: obs.NewHist(obs.LatencyBuckets()),
	}
	st := &schedRun{s: s, rep: rep, clock: dispatch.OrWall(s.Policy.Clock)}
	cfg := dispatch.Config{
		Name:       "gpu",
		Executors:  n,
		QueueDepth: s.QueueDepth,
		Policy:     s.Policy,
		Drain:      s.Drain,
		ErrAllLost: ErrAllQuarantined,
		Quarantined: func(i, _ int) {
			rep.Faults.Quarantines++
			rep.Faults.Devices[i].Quarantined = true
		},
	}
	if s.Fallback != nil {
		cfg.Fallback = st.fallback
	}
	if s.DMR != nil {
		cfg.Rerun = st.dmr
	}
	st.run = dispatch.New(cfg)
	for i, dev := range s.Sys.Devices {
		st.run.Go(func() { st.runWorker(i, dev, process) })
	}
	tot, err := st.run.Feed(ctx, produce)
	if err != nil {
		return nil, err
	}
	rep.Wall, rep.Drained = tot.Wall, tot.Drained
	rep.Batches, rep.Seqs, rep.Residues = tot.Batches, tot.Seqs, tot.Residues
	rep.Faults.Fallbacks = tot.Fallbacks
	rep.Faults.SDCReruns += tot.Reruns
	return rep, nil
}

// DeviceWorker binds one device to a reusable Searcher and one-time
// profile uploads, so a stream of batches pays the model-upload cost
// once per device instead of once per batch.
type DeviceWorker struct {
	Dev *simt.Device
	S   *Searcher
	MSV *DeviceMSVProfile
	Vit *DeviceVitProfile
}

// NewDeviceWorker uploads the filter profiles to dev and returns the
// bound worker.
func NewDeviceWorker(dev *simt.Device, mem MemConfig, hostWorkers int,
	mp *profile.MSVProfile, vp *profile.VitProfile) *DeviceWorker {
	return &DeviceWorker{
		Dev: dev,
		S:   &Searcher{Dev: dev, Mem: mem, HostWorkers: hostWorkers},
		MSV: UploadMSVProfile(dev, mp),
		Vit: UploadVitProfile(dev, vp),
	}
}

// MSVBatch uploads one batch and runs the MSV kernel over it.
func (w *DeviceWorker) MSVBatch(db *seq.Database) (*SearchReport, error) {
	return w.S.MSVSearch(w.MSV, UploadDB(w.Dev, db))
}

// ViterbiBatch uploads one batch and runs the P7Viterbi kernel over it.
func (w *DeviceWorker) ViterbiBatch(db *seq.Database) (*SearchReport, error) {
	return w.S.ViterbiSearch(w.Vit, UploadDB(w.Dev, db))
}
