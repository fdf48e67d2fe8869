package simt

// Fault model of the simulated devices. At the scale the ROADMAP aims
// for (a production service saturating several devices for hours),
// device faults are routine, not exceptional: a launch that the driver
// rejects (transient), a kernel that never returns (hung), and a card
// that falls off the bus (lost). The simulator makes each of them
// deterministic and injectable so the multi-device scheduler's
// recovery paths — retry, requeue, quarantine, host fallback — can be
// tested exactly, under the race detector, with no real hardware and
// no real sleeps.
//
// The taxonomy the rest of the system keys off:
//
//   - ErrLaunchFailed — transient; retrying the launch may succeed.
//   - ErrDeviceHung   — an injected hang: the launch never finished,
//     but the device returned control, so it is suspect but usable
//     (transient).
//   - ErrDeviceLost   — persistent; every subsequent launch on the
//     device fails, so callers must stop using it.
//   - KernelPanicError — a bug in the kernel itself (illegal
//     instruction, barrier misuse); deterministic, so retrying
//     anywhere reproduces it and the run must surface it as an error
//     rather than die in a goroutine panic.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Typed device fault causes. They are wrapped in a *FaultError carrying
// the device and launch ordinal; match with errors.Is.
var (
	// ErrLaunchFailed is a transient kernel-launch failure.
	ErrLaunchFailed = errors.New("simt: kernel launch failed")
	// ErrDeviceHung marks an injected hang: a launch that never finished.
	ErrDeviceHung = errors.New("simt: injected device hang (launch never finished)")
	// ErrDeviceLost marks a device that has failed permanently; every
	// launch after the fault returns it again.
	ErrDeviceLost = errors.New("simt: device lost")
)

// FaultError is a device fault as surfaced by Device.Launch: the
// underlying cause (one of the Err sentinels above), where it struck,
// and whether the device is permanently gone.
type FaultError struct {
	// Device is the faulting device's track label ("device2").
	Device string
	// Ordinal is the device-local launch ordinal that faulted
	// (-1 when the fault is not tied to a counted launch).
	Ordinal int64
	// Persistent reports that the device is unusable from now on
	// (ErrDeviceLost); transient faults may succeed on retry.
	Persistent bool
	// Err is the typed cause.
	Err error
}

func (e *FaultError) Error() string {
	kind := "transient"
	if e.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("%v (%s fault on %s, launch %d)", e.Err, kind, e.Device, e.Ordinal)
}

func (e *FaultError) Unwrap() error { return e.Err }

// IsPersistentFault reports whether err marks a device that must not
// be used again (device lost).
func IsPersistentFault(err error) bool {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe.Persistent
	}
	return errors.Is(err, ErrDeviceLost)
}

// IsTransientFault reports whether err is a device fault worth
// retrying (launch failure or hang on a device that is still present).
func IsTransientFault(err error) bool {
	var fe *FaultError
	if errors.As(err, &fe) {
		return !fe.Persistent
	}
	return errors.Is(err, ErrLaunchFailed) || errors.Is(err, ErrDeviceHung)
}

// FaultKind selects what an injected fault does to the launch.
type FaultKind int

const (
	// FaultLaunch makes the launch fail transiently (ErrLaunchFailed).
	FaultLaunch FaultKind = iota
	// FaultHang injects a hang: the launch returns ErrDeviceHung and
	// the device stays usable.
	FaultHang
	// FaultLost kills the device: the launch and every one after it
	// return ErrDeviceLost.
	FaultLost
)

func (k FaultKind) String() string {
	switch k {
	case FaultLaunch:
		return "launch-failed"
	case FaultHang:
		return "hang"
	case FaultLost:
		return "lost"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultInjector decides, per launch, whether a device faults. Faults
// fire on chosen launch ordinals (deterministic) or probabilistically
// from a seeded generator, so a fault schedule is reproducible:
// re-running the same device workload re-injects the same faults.
// Attach one per Device via Device.Faults; a nil injector injects
// nothing. An injector is owned by a single device.
type FaultInjector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	p        float64
	at       map[int64]FaultKind
	lostFrom int64
	launches int64
	injected int64

	// Mem, when non-nil, additionally injects silent memory
	// corruption (bit flips in shared memory and result readbacks)
	// into launches that pass fail-stop arbitration. See
	// MemFaultInjector.
	Mem *MemFaultInjector
}

// NewFaultInjector returns an injector whose probabilistic faults draw
// from a generator seeded with seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{
		rng:      rand.New(rand.NewSource(seed)),
		at:       make(map[int64]FaultKind),
		lostFrom: -1,
	}
}

// FailAt schedules a fault of the given kind on the device-local
// launch ordinal (0-based). FaultLost marks the device lost from that
// ordinal on. Returns the injector for chaining.
func (f *FaultInjector) FailAt(ordinal int64, kind FaultKind) *FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	if kind == FaultLost {
		if f.lostFrom < 0 || ordinal < f.lostFrom {
			f.lostFrom = ordinal
		}
		return f
	}
	f.at[ordinal] = kind
	return f
}

// FailProb makes every launch fail transiently with probability p
// (drawn from the injector's seeded generator).
func (f *FaultInjector) FailProb(p float64) *FaultInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.p = p
	return f
}

// LoseFrom marks the device permanently lost from the given launch
// ordinal on (0 kills it immediately).
func (f *FaultInjector) LoseFrom(ordinal int64) *FaultInjector {
	return f.FailAt(ordinal, FaultLost)
}

// Launches returns how many launches the injector has arbitrated.
func (f *FaultInjector) Launches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.launches
}

// Injected returns how many faults the injector has fired.
func (f *FaultInjector) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// memPlan forwards to the silent-corruption injector (nil-safe); it
// is called only for launches that passed fail-stop arbitration, so
// flip@launch ordinals count executed launches and stay deterministic
// across fail-stop retries.
func (f *FaultInjector) memPlan(ecc bool, sharedBytesPerBlock, blocks int) *memFlipPlan {
	if f == nil {
		return nil
	}
	return f.Mem.memPlan(ecc, sharedBytesPerBlock, blocks)
}

// onLaunch consumes one launch ordinal and returns the fault to
// inject, or nil to let the launch proceed. device is the launching
// device's track label.
func (f *FaultInjector) onLaunch(device string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ord := f.launches
	f.launches++
	fault := func(cause error, persistent bool) error {
		f.injected++
		return &FaultError{Device: device, Ordinal: ord, Persistent: persistent, Err: cause}
	}
	if f.lostFrom >= 0 && ord >= f.lostFrom {
		return fault(ErrDeviceLost, true)
	}
	if kind, ok := f.at[ord]; ok {
		switch kind {
		case FaultHang:
			return fault(ErrDeviceHung, false)
		default:
			return fault(ErrLaunchFailed, false)
		}
	}
	if f.p > 0 && f.rng.Float64() < f.p {
		return fault(ErrLaunchFailed, false)
	}
	return nil
}

// KernelPanicError is a kernel-goroutine panic recovered by
// Device.Launch: an illegal kernel (shuffle on a device without
// shuffle support, __syncthreads outside a cooperative launch, an
// out-of-bounds shared access) is reported as an error instead of
// killing the process. Kernel panics are deterministic — the same
// kernel on the same input panics again — so callers must treat them
// as fatal to the run, not retryable.
type KernelPanicError struct {
	// Device is the device's track label; Spec its hardware name.
	Device string
	Spec   string
	// Kernel is the launch's configured name ("msv", ...).
	Kernel string
	// Block and Warp locate the faulting warp in the grid (-1 when the
	// panic carried no location).
	Block, Warp int
	// Op names the offending operation ("shfl.xor", "__syncthreads")
	// when known.
	Op string
	// Value is the recovered panic value (for structured kernel faults,
	// the formatted message).
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *KernelPanicError) Error() string {
	loc := ""
	if e.Block >= 0 {
		loc = fmt.Sprintf(" block %d warp %d", e.Block, e.Warp)
	}
	op := ""
	if e.Op != "" {
		op = e.Op + ": "
	}
	return fmt.Sprintf("simt: kernel %q panicked on %s (%s)%s: %s%v",
		e.Kernel, e.Device, e.Spec, loc, op, e.Value)
}

// kernelFault is the structured panic payload raised by Warp methods
// on illegal operations, so the recovered KernelPanicError can report
// exactly which warp of which block executed what.
type kernelFault struct {
	op          string
	block, warp int
	device      string
	msg         string
}

func (f *kernelFault) String() string {
	return fmt.Sprintf("simt: %s on %s, block %d warp %d: %s", f.op, f.device, f.block, f.warp, f.msg)
}

// fail raises a structured kernel fault carrying the warp's device and
// grid coordinates; Device.Launch recovers it into a KernelPanicError.
func (w *Warp) fail(op, format string, args ...any) {
	panic(&kernelFault{
		op:     op,
		block:  w.BlockIdx,
		warp:   w.WarpInBlock,
		device: w.dev.Spec.Name,
		msg:    fmt.Sprintf(format, args...),
	})
}

// barrierBroken is the panic payload with which a warp parked in a
// __syncthreads barrier unwinds once a sibling warp has panicked; it is
// swallowed at recovery (the original panic is the reported error).
type barrierBroken struct{}
