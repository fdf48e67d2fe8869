package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/frame"
)

// ErrInjectedRefusal marks a dial the fault injector refused, standing
// in for a worker process that is down or unreachable.
var ErrInjectedRefusal = errors.New("cluster: injected connect refusal")

// ErrInjectedKill marks a connection the fault injector severed
// mid-session, standing in for a worker process killed under the
// coordinator.
var ErrInjectedKill = errors.New("cluster: injected worker kill")

// ErrInjectedCoordinatorKill marks a run the fault injector aborted at
// a chosen batch assignment, standing in for the coordinator process
// itself dying mid-run — the event a hot standby exists to survive.
// cmd/hmmsearch exits with status 3 on it, like an injected journal
// crash.
var ErrInjectedCoordinatorKill = errors.New("cluster: injected coordinator kill")

// FaultPlan describes the faults to inject against one worker. Batch
// ordinals count batch frames written to that worker across its whole
// lifetime (all connections), so a plan is deterministic regardless of
// how reconnects interleave. -1 disables an ordinal-triggered fault.
type FaultPlan struct {
	// RefuseConnects fails the worker's first N dials outright.
	RefuseConnects int
	// KillAtBatch severs the connection instead of writing the Nth
	// (0-based) batch frame — the batch is lost before the worker sees
	// it.
	KillAtBatch int
	// TornAtBatch writes only the front half of the Nth batch frame,
	// then severs the connection — the worker observes a torn frame.
	TornAtBatch int
	// KillProb kills the connection before each batch frame with this
	// probability, drawn from the injector's seeded stream.
	KillProb float64
	// StallAtBatch sleeps StallFor (on the injector's clock) before
	// writing the Nth batch frame, modelling a network or worker stall
	// long enough to trip heartbeat or batch deadlines.
	StallAtBatch int
	StallFor     time.Duration
	// StayDead, combined with KillAtBatch/TornAtBatch/KillProb, refuses
	// every dial after the first injected kill — the killed worker
	// process stays gone instead of modelling a restart.
	StayDead bool
	// CorruptHello flips a byte in the first handshake frame of every
	// connection, so the worker sees a checksum mismatch.
	CorruptHello bool
}

// NewFaultPlan returns a plan with every ordinal-triggered fault
// disabled, ready for its fields to be set.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{KillAtBatch: -1, TornAtBatch: -1, StallAtBatch: -1}
}

// FaultInjector drives deterministic chaos against cluster
// connections. Probabilistic draws come from a per-worker stream
// derived from one seed, and decisions key off per-worker event
// ordinals — never goroutine interleaving — so the fault schedule of a
// (seed, plans, workload) triple reproduces exactly run-to-run, which
// the chaos determinism tests pin.
type FaultInjector struct {
	seed  int64
	clock dispatch.Clock

	mu    sync.Mutex
	rngs  map[int]*rand.Rand
	plans map[int]*FaultPlan
	// dials / batches count per-worker lifetime events; dead marks
	// workers whose StayDead plan has fired.
	dials   map[int]int
	batches map[int]int
	dead    map[int]bool
	logs    map[int][]string
	// assigns counts batch assignments across all workers (the
	// coordinator-kill ordinal); coordKillAt is the assignment at which
	// the coordinator "dies" (-1: never).
	assigns     int
	coordKillAt int
}

// NewFaultInjector returns an injector drawing from the given seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{
		seed:        seed,
		rngs:        make(map[int]*rand.Rand),
		plans:       make(map[int]*FaultPlan),
		dials:       make(map[int]int),
		batches:     make(map[int]int),
		dead:        make(map[int]bool),
		logs:        make(map[int][]string),
		coordKillAt: -1,
	}
}

// rngLocked returns worker's private seeded stream, derived from the
// injector seed so distinct workers draw independently but
// reproducibly.
func (fi *FaultInjector) rngLocked(worker int) *rand.Rand {
	r, ok := fi.rngs[worker]
	if !ok {
		r = rand.New(rand.NewSource(fi.seed ^ (int64(worker)+1)*0x5851F42D4C957F2D))
		fi.rngs[worker] = r
	}
	return r
}

// SetClock substitutes the clock used for injected stalls (tests pass
// the same fake clock the coordinator runs on).
func (fi *FaultInjector) SetClock(c dispatch.Clock) { fi.clock = c }

// Plan registers a fault plan for one worker index, replacing any
// previous plan.
func (fi *FaultInjector) Plan(worker int, p *FaultPlan) {
	fi.mu.Lock()
	fi.plans[worker] = p
	fi.mu.Unlock()
}

// Schedule returns the log of every fault decision the injector has
// made ("w1 refuse-connect #0", "w0 kill batch #2", ...), grouped by
// worker, each worker's decisions in event order. Two runs with the
// same seed, plans, and workload produce the same schedule — the
// determinism chaos tests pin this.
func (fi *FaultInjector) Schedule() []string {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	workers := make([]int, 0, len(fi.logs))
	for w := range fi.logs {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	var out []string
	for _, w := range workers {
		out = append(out, fi.logs[w]...)
	}
	return out
}

func (fi *FaultInjector) record(worker int, format string, args ...any) {
	fi.logs[worker] = append(fi.logs[worker], fmt.Sprintf(format, args...))
}

// SetCoordinatorKill arms the coordinator-kill fault: the run aborts
// with ErrInjectedCoordinatorKill at the nth (0-based) batch
// assignment, counted across all workers in assignment order. -1
// disarms it.
func (fi *FaultInjector) SetCoordinatorKill(n int) {
	fi.mu.Lock()
	fi.coordKillAt = n
	fi.mu.Unlock()
}

// BeforeAssign is consulted by the coordinator once per batch
// assignment, just before the batch frame is written. A non-nil error
// (ErrInjectedCoordinatorKill) means the coordinator process "dies"
// here. Safe on a nil injector.
func (fi *FaultInjector) BeforeAssign() error {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	n := fi.assigns
	fi.assigns++
	if fi.coordKillAt >= 0 && n == fi.coordKillAt {
		fi.record(-1, "coordinator kill at assignment #%d", n)
		return fmt.Errorf("%w (assignment %d)", ErrInjectedCoordinatorKill, n)
	}
	return nil
}

// AllowConnect consults the plan for one dial attempt; a non-nil error
// means the dial must fail without touching the network.
func (fi *FaultInjector) AllowConnect(worker int) error {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	n := fi.dials[worker]
	fi.dials[worker]++
	if fi.dead[worker] {
		fi.record(worker, "w%d refuse-connect #%d (dead)", worker, n)
		return fmt.Errorf("%w (worker %d is dead, dial %d)", ErrInjectedRefusal, worker, n)
	}
	if p := fi.plans[worker]; p != nil && n < p.RefuseConnects {
		fi.record(worker, "w%d refuse-connect #%d", worker, n)
		return fmt.Errorf("%w (worker %d, dial %d)", ErrInjectedRefusal, worker, n)
	}
	return nil
}

// WrapConn wraps an established connection with the worker's fault
// plan. With no plan (or a nil injector) the connection is returned
// unchanged.
func (fi *FaultInjector) WrapConn(worker int, conn net.Conn) net.Conn {
	if fi == nil {
		return conn
	}
	fi.mu.Lock()
	p := fi.plans[worker]
	fi.mu.Unlock()
	if p == nil {
		return conn
	}
	return &faultConn{Conn: conn, fi: fi, worker: worker, plan: p}
}

// faultConn intercepts writes on the coordinator side of a worker
// connection. Frames are written as single contiguous buffers
// (writeFrame), so each Write carries exactly one frame and the
// message type sits at offset frame.HeaderSize.
type faultConn struct {
	net.Conn
	fi     *FaultInjector
	worker int
	plan   *FaultPlan

	mu         sync.Mutex
	killed     bool
	wroteHello bool
}

func (fc *faultConn) Write(b []byte) (int, error) {
	fc.mu.Lock()
	if fc.killed {
		fc.mu.Unlock()
		return 0, ErrInjectedKill
	}
	typ := byte(0)
	if len(b) > frame.HeaderSize {
		typ = b[frame.HeaderSize]
	}
	if typ == msgHello && !fc.wroteHello {
		fc.wroteHello = true
		if fc.plan.CorruptHello {
			fc.fi.mu.Lock()
			fc.fi.record(fc.worker, "w%d corrupt-hello", fc.worker)
			fc.fi.mu.Unlock()
			corrupt := append([]byte(nil), b...)
			corrupt[len(corrupt)-1] ^= 0xff
			fc.mu.Unlock()
			return fc.Conn.Write(corrupt)
		}
		fc.mu.Unlock()
		return fc.Conn.Write(b)
	}
	if typ != msgBatch {
		fc.mu.Unlock()
		return fc.Conn.Write(b)
	}

	// One batch frame: consult the plan under the injector lock so the
	// ordinal stream and rng draws are globally ordered.
	fc.fi.mu.Lock()
	n := fc.fi.batches[fc.worker]
	fc.fi.batches[fc.worker]++
	kill := fc.plan.KillAtBatch == n
	torn := fc.plan.TornAtBatch == n
	stall := fc.plan.StallAtBatch == n
	if !kill && !torn && fc.plan.KillProb > 0 && fc.fi.rngLocked(fc.worker).Float64() < fc.plan.KillProb {
		kill = true
	}
	switch {
	case kill:
		fc.fi.record(fc.worker, "w%d kill batch #%d", fc.worker, n)
	case torn:
		fc.fi.record(fc.worker, "w%d torn-frame batch #%d", fc.worker, n)
	case stall:
		fc.fi.record(fc.worker, "w%d stall batch #%d for %s", fc.worker, n, fc.plan.StallFor)
	}
	if (kill || torn) && fc.plan.StayDead {
		fc.fi.dead[fc.worker] = true
	}
	clock := dispatch.OrWall(fc.fi.clock)
	fc.fi.mu.Unlock()

	switch {
	case kill:
		fc.killed = true
		fc.mu.Unlock()
		fc.Conn.Close()
		return 0, ErrInjectedKill
	case torn:
		fc.killed = true
		fc.mu.Unlock()
		half := b[:len(b)/2]
		fc.Conn.Write(half)
		fc.Conn.Close()
		return len(half), ErrInjectedKill
	case stall:
		fc.mu.Unlock()
		<-clock.After(fc.plan.StallFor)
		return fc.Conn.Write(b)
	}
	fc.mu.Unlock()
	return fc.Conn.Write(b)
}
