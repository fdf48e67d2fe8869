package gpu

import (
	"errors"
	"fmt"
	"strings"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/simt"
)

// Fault handling for the streaming scheduler. The simt layer injects
// and surfaces typed device faults (see internal/simt/fault.go); this
// file decides what the scheduler does about each of them: retry with
// backoff, requeue to a different device, quarantine the device, or
// fall back to the host CPU.

// ErrBatchTimeout marks a batch whose processing exceeded the
// scheduler's per-batch watchdog (Scheduler.BatchTimeout). The worker
// abandons the batch and the watchdog claims the batch's commit
// token, so the abandoned attempt's late result, if it ever arrives,
// is discarded.
var ErrBatchTimeout = errors.New("gpu: batch processing exceeded deadline")

// errLateCommit reports that a watchdog-expired attempt committed its
// result before the watchdog could claim the batch's merge token: the
// merge already landed (runBatch waits for it), so the batch is
// complete and must not be requeued.
var errLateCommit = errors.New("gpu: abandoned attempt committed its result late")

// ErrAllQuarantined is returned when every device has been quarantined
// and the scheduler has no host fallback to drain the remaining work.
var ErrAllQuarantined = errors.New("gpu: all devices quarantined")

// ErrDraining is dispatch.ErrDraining: submit returns it once
// Scheduler.Drain closes, and RunBatches treats a producer that returns
// it as a clean stop.
var ErrDraining = dispatch.ErrDraining

// faultClass is the scheduler's triage of a processing error.
type faultClass int

const (
	// faultRunFatal aborts the run: kernel panics (deterministic bugs
	// that retrying anywhere reproduces) and unrecognised errors.
	faultRunFatal faultClass = iota
	// faultTransient is worth retrying with backoff, preferably on a
	// different device.
	faultTransient
	// faultDeviceFatal quarantines the device immediately (lost device,
	// or a watchdog-abandoned batch whose device may still be wedged)
	// and requeues the batch elsewhere without consuming retry budget.
	faultDeviceFatal
	// faultIntegrity marks a batch whose results failed an integrity
	// check: the launch succeeded but the numbers are suspect (silent
	// data corruption). The result is discarded before merge and the
	// batch re-executed — via the DMR callback on the host when
	// configured, otherwise on a different device — and the producing
	// device takes a health strike toward the quarantine breaker.
	faultIntegrity
)

// classifyFault maps a batch-processing error to the scheduler's
// response.
func classifyFault(err error) faultClass {
	var kp *simt.KernelPanicError
	if errors.As(err, &kp) {
		return faultRunFatal
	}
	var ie *integrity.Error
	if errors.As(err, &ie) {
		return faultIntegrity
	}
	if errors.Is(err, ErrBatchTimeout) || simt.IsPersistentFault(err) {
		return faultDeviceFatal
	}
	if simt.IsTransientFault(err) {
		return faultTransient
	}
	return faultRunFatal
}

// DeviceFaultStats is one device's share of a run's fault activity.
type DeviceFaultStats struct {
	// Failures counts failed processing attempts on the device.
	Failures int
	// Retries counts the transient failures that were retried.
	Retries int
	// Timeouts counts watchdog expirations charged to the device.
	Timeouts int
	// SDCs counts silent-data-corruption detections charged to the
	// device (batches whose results failed an integrity check).
	SDCs int
	// Quarantined reports the device was taken out of service.
	Quarantined bool
}

// FaultReport aggregates a run's fault handling, embedded in
// ScheduleReport.
type FaultReport struct {
	// Retries is the number of retry attempts scheduled after
	// transient faults.
	Retries int
	// Requeues is the number of times a failed batch was picked up by
	// a different device than the one that failed it.
	Requeues int
	// Timeouts is the number of watchdog-abandoned batches.
	Timeouts int
	// Quarantines is the number of devices quarantined during the run.
	Quarantines int
	// Fallbacks is the number of batches completed by the host CPU
	// after every device was quarantined.
	Fallbacks int
	// SDCDetected is the number of batches whose results failed an
	// integrity check (silent data corruption caught before merge).
	SDCDetected int
	// SDCReruns is the number of re-executions performed to replace
	// discarded corrupt results (host DMR runs that committed, or
	// requeues to another device in guards-only mode).
	SDCReruns int
	// Devices is the per-device fault breakdown, indexed by device.
	Devices []DeviceFaultStats
}

// Any reports whether the run saw any fault activity.
func (f *FaultReport) Any() bool {
	return f.Retries+f.Requeues+f.Timeouts+f.Quarantines+f.Fallbacks+
		f.SDCDetected+f.SDCReruns > 0
}

// String renders the fault summary (empty when the run was clean).
// SDC lines appear only when corruption was detected, so a run with
// purely fail-stop faults renders exactly as before.
func (f *FaultReport) String() string {
	if !f.Any() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d retries, %d requeues, %d timeouts, %d devices quarantined, %d cpu-fallback batches",
		f.Retries, f.Requeues, f.Timeouts, f.Quarantines, f.Fallbacks)
	if f.SDCDetected > 0 || f.SDCReruns > 0 {
		fmt.Fprintf(&b, "\n    silent data corruption: %d detected, %d re-executed",
			f.SDCDetected, f.SDCReruns)
	}
	for i, d := range f.Devices {
		if d.Failures == 0 && !d.Quarantined {
			continue
		}
		status := ""
		if d.Quarantined {
			status = ", quarantined"
		}
		sdc := ""
		if d.SDCs > 0 {
			sdc = fmt.Sprintf(", %d sdc", d.SDCs)
		}
		fmt.Fprintf(&b, "\n    device %d: %d failures (%d retried, %d timeouts%s)%s",
			i, d.Failures, d.Retries, d.Timeouts, sdc, status)
	}
	return b.String()
}
