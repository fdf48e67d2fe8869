package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/obs"
)

// ErrAllWorkersLost reports that every worker was quarantined while
// batches were still outstanding and no local executor was configured.
var ErrAllWorkersLost = errors.New("cluster: all workers lost")

// errAborted ends the sessions and connects of a failed run.
var errAborted = errors.New("cluster: run aborted")

// ErrDraining is dispatch.ErrDraining, the graceful-stop sentinel the
// single-node scheduler shares, so one producer serves both paths.
var ErrDraining = dispatch.ErrDraining

// Default cluster knobs (used when the corresponding Config field is
// zero); the retry and breaker defaults are dispatch's.
const (
	DefaultHeartbeatEvery   = 250 * time.Millisecond
	DefaultHeartbeatTimeout = 2 * time.Second
	DefaultMaxConnects      = 3
)

// Batch is one unit of sharded work (see dispatch.Batch): identity in
// the stream plus the one-shot merge token that makes requeues
// exactly-once across workers, epochs and the degraded local path.
type Batch = dispatch.Batch

// WorkerSpec names one worker and knows how to reach it. Dial returns
// a fresh connection; for in-process workers it returns one end of a
// net.Pipe whose other end a WorkerServer is serving, so both
// transports run the same wire code.
type WorkerSpec struct {
	Name string
	Dial func(ctx context.Context) (net.Conn, error)
}

// Config shapes one Coordinator.
type Config struct {
	// Workers is the roster; at least one is required.
	Workers []WorkerSpec
	// Fingerprint and Mode are carried in the handshake; a worker
	// reporting a different config fingerprint or simulator cost model
	// is rejected at connect.
	Fingerprint [32]byte
	Mode        byte
	// Epoch is the coordinator's fencing epoch, carried in every
	// hello. Workers remember the highest epoch they have acked
	// and nack (or fence batches from) anything lower, which is what
	// makes hot-standby takeover safe: the standby runs at a higher
	// epoch, so the old primary — alive but presumed dead — can no
	// longer commit through the workers. Zero means 1 for a plain
	// run and 2 for a standby's takeover.
	Epoch uint64
	// Standby, when non-nil, makes the run a hot standby's takeover
	// (pipeline.RunClusterStreamContext).
	Standby *Lease

	// QueueDepth bounds parsed-but-unassigned batches (backpressure on
	// the producer); 0 means two per worker. Requeues are exempt.
	QueueDepth int
	// HeartbeatEvery is the ping cadence per session; HeartbeatTimeout
	// is how long a session may go without any frame from the worker
	// before it is declared lost. Zero values use the defaults.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// BatchDeadline bounds one assignment: a batch not answered within
	// it is reclaimed and requeued (the eventual late result is fenced
	// by epoch). 0 disables per-batch deadlines — heartbeats still
	// bound worker loss.
	BatchDeadline time.Duration
	// MaxConnects is the dial budget per (re)connect episode before the
	// worker is quarantined; 0 means DefaultMaxConnects.
	MaxConnects int
	// Policy is the run's fault policy: disconnects, deadlines and exec
	// failures are strikes, only exec failures spend retry budget, and
	// the backoff also paces reconnects. Its Clock is shared with the
	// FaultInjector in tests.
	Policy dispatch.Policy

	// Local, when non-nil, executes a batch on the coordinator itself
	// once every worker is gone (dispatch.Config.Fallback).
	Local func(b Batch) (committed bool, err error)
	// Drain, when non-nil, requests a graceful stop once closed:
	// submitted batches finish (processed, committed, journaled), new
	// submissions are refused with ErrDraining.
	Drain <-chan struct{}
	// Inject, when non-nil, applies fault plans to dials and
	// connections.
	Inject *FaultInjector
	// Trace, when non-nil, parents one span per assignment on a
	// per-worker track.
	Trace *obs.Span
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// orDefault returns v when positive, else def.
func orDefault[T int | uint64 | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (c *Config) coordEpoch() uint64 { return orDefault(c.Epoch, 1) }
func (c *Config) heartbeatEvery() time.Duration {
	return orDefault(c.HeartbeatEvery, DefaultHeartbeatEvery)
}
func (c *Config) heartbeatTimeout() time.Duration {
	return orDefault(c.HeartbeatTimeout, DefaultHeartbeatTimeout)
}
func (c *Config) maxConnects() int { return orDefault(c.MaxConnects, DefaultMaxConnects) }

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Coordinator shards a batch stream across the configured workers. It
// is the cluster executor on the dispatch core that gpu.Scheduler also
// runs on: same pending list, token, breaker and host fallback, with
// workers in place of devices and the wire in place of function calls.
// The coordinator adds dial/handshake/heartbeat sessions, the
// (seq, epoch) inflight fence, BatchDeadline and its Report.
type Coordinator struct {
	Cfg Config
}

// flightResult is what the reader hands a waiting slot: a result
// payload or the worker's execution error.
type flightResult struct {
	payload []byte
	execErr string
}

// flight is one in-flight assignment: (batch, epoch) on one session.
// The epoch is the fence — a result frame must match both the batch's
// live flight and its epoch, or it is dropped.
type flight struct {
	att       *dispatch.Attempt
	epoch     uint64
	ch        chan flightResult // buffered 1
	delivered bool              // guarded by the run's lock
}

// session is one live connection to a worker.
type session struct {
	worker   int
	name     string
	capacity int
	conn     net.Conn

	wmu sync.Mutex // serialises frame writes (slots + heartbeat)

	// dead closes when the session is torn down; deadFlag and cause are
	// guarded by the run's lock, set before dead closes.
	dead     chan struct{}
	once     sync.Once
	deadFlag bool
	cause    error
	// lost marks a session that died with the worker still in service
	// and work outstanding: the worker owes the run a reconnect episode.
	lost bool

	lastSeen atomic.Int64 // clock nanos of the last frame from the worker

	// closing is set just before the coordinator says goodbye, so the
	// EOF the worker's close then produces reads as a clean shutdown,
	// not a worker loss.
	closing atomic.Bool

	inflight map[int]*flight // by batch Seq; guarded by the run's lock
}

func (s *session) write(body []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return writeFrame(s.conn, body)
}

func (s *session) touch(now time.Time) { s.lastSeen.Store(now.UnixNano()) }

// kill tears the session down exactly once: every still-inflight
// (undelivered) batch is requeued — exactly once, because inflight
// entries are removed both here and on delivery under the same lock —
// and the connection is closed. A nil cause is a clean shutdown.
func (s *session) kill(cr *coordRun, cause error) {
	s.once.Do(func() {
		r := cr.run
		r.Lock()
		s.cause = cause
		s.deadFlag = true
		n := 0
		for seqNo, fl := range s.inflight {
			delete(s.inflight, seqNo)
			r.Requeue(fl.att, s.worker)
			n++
		}
		if n > 0 {
			cr.rep.Requeues += n
			cr.rep.Workers[s.worker].Requeues += n
		}
		s.lost = cause != nil && !r.Stopped(s.worker)
		close(s.dead)
		r.Wake()
		r.Unlock()
		s.conn.Close()
		if cause != nil {
			cr.c.Cfg.logf("cluster: worker %s session ended: %v (%d batches requeued)", s.name, cause, n)
		}
	})
}

// coordRun is one Run: the dispatch core plus the cluster state kept
// under its lock.
type coordRun struct {
	c        *Coordinator
	rep      *Report
	ctx      context.Context
	commitFn func(b Batch, payload []byte) (bool, error)
	run      *dispatch.Run
	clock    dispatch.Clock

	// Guarded by the run's lock.
	epoch        uint64 // next assignment epoch (globally unique)
	connectedOne []bool // worker has connected at least once

	// At Epoch > 1 fence counts the workers whose first connect episode
	// is open, and no slot assigns before fenceOpen closes at zero.
	fence     sync.WaitGroup
	fenceOpen chan struct{}
}

// quarantined books worker i leaving service (dispatch's hook).
func (cr *coordRun) quarantined(i, healthy int) {
	cfg := &cr.c.Cfg
	cr.rep.Quarantines++
	cr.rep.Workers[i].Quarantined = true
	cfg.logf("cluster: worker %s quarantined (%d healthy left)", cfg.Workers[i].Name, healthy)
	if healthy == 0 && cfg.Local != nil {
		cr.rep.Degraded = true
		cfg.logf("cluster: all workers lost, degrading to local execution")
	}
}

// local runs one batch on the coordinator itself once every worker is
// quarantined (dispatch's host fallback).
func (cr *coordRun) local(b Batch) (bool, error) {
	span := cr.c.Cfg.Trace.ChildOn("local", fmt.Sprintf("batch %d (local degraded)", b.Seq),
		obs.Int("batch", int64(b.Seq)),
		obs.Bool("local_degraded", true))
	defer span.End()
	return cr.c.Cfg.Local(b)
}

// runWorker owns worker i for the run: connect (with backoff),
// serve the session until it dies, strike, reconnect — until the run
// completes, aborts, or the worker is quarantined.
//
// A session lost with work outstanding opens a reconnect episode that
// runs to its outcome, reconnected or quarantined, even when the rest
// of the stream finishes first. Whether a lost worker ends the run
// quarantined then depends on its dials, not on how fast the other
// workers drain the stream.
func (cr *coordRun) runWorker(i int) {
	r := cr.run
	ws := &cr.rep.Workers[i]
	// The first connect episode ends the worker's part in the fence:
	// acked (the epoch), or quarantined.
	passFence := func() {}
	if cr.rep.Epoch > 1 {
		passFence = sync.OnceFunc(cr.fence.Done)
	}
	defer passFence()
	r.Lock()
	stopped := r.Stopped(i)
	r.Unlock()
	if stopped {
		return
	}
	for {
		sess, err := cr.connect(i)
		if err != nil {
			r.Lock()
			ws.LastError = err.Error()
			r.Quarantine(i)
			r.Unlock()
			return
		}
		passFence()
		cr.serveSession(i, sess)

		r.Lock()
		if sess.cause != nil {
			ws.Disconnects++
			ws.LastError = sess.cause.Error()
		}
		if !sess.lost {
			r.Unlock()
			return
		}
		// The session died with work remaining: strike and reconnect.
		strikes, tripped := r.Strike(i)
		r.Unlock()
		if tripped {
			return
		}
		select {
		case <-cr.clock.After(cr.c.Cfg.Policy.Backoff(strikes)):
		case <-r.Aborted():
			return
		}
	}
}

// connect dials worker i with up to MaxConnects attempts (capped
// backoff between them) and completes the handshake. A handshake
// rejection (version/fingerprint/mode) is permanent and returned
// immediately — redialling a misconfigured worker cannot help.
func (cr *coordRun) connect(i int) (*session, error) {
	cfg := &cr.c.Cfg
	spec := cfg.Workers[i]
	ws := &cr.rep.Workers[i]
	var lastErr error
	for attempt := 0; attempt < cfg.maxConnects(); attempt++ {
		if attempt > 0 {
			select {
			case <-cr.clock.After(cr.c.Cfg.Policy.Backoff(attempt)):
			case <-cr.run.Aborted():
				return nil, errAborted
			}
		}
		if err := cfg.Inject.AllowConnect(i); err != nil {
			lastErr = err
			cr.countConnectFailure(ws)
			continue
		}
		conn, err := spec.Dial(cr.ctx)
		if err != nil {
			lastErr = err
			cr.countConnectFailure(ws)
			continue
		}
		conn = cfg.Inject.WrapConn(i, conn)
		ack, err := cr.handshake(spec.Name, conn)
		if err != nil {
			conn.Close()
			cr.countConnectFailure(ws)
			var hs *HandshakeError
			if errors.As(err, &hs) {
				return nil, err
			}
			lastErr = err
			continue
		}
		sess := &session{
			worker:   i,
			name:     spec.Name,
			capacity: ack.Capacity,
			conn:     conn,
			dead:     make(chan struct{}),
			inflight: make(map[int]*flight),
		}
		sess.touch(cr.clock.Now())
		cr.run.Lock()
		if cr.connectedOne[i] {
			cr.rep.Reconnects++
			ws.Reconnects++
		}
		cr.connectedOne[i] = true
		cr.run.Unlock()
		cfg.logf("cluster: worker %s connected (capacity %d)", ack.Name, ack.Capacity)
		return sess, nil
	}
	return nil, fmt.Errorf("cluster: worker %s unreachable after %d attempts: %w",
		spec.Name, cfg.maxConnects(), lastErr)
}

func (cr *coordRun) countConnectFailure(ws *WorkerStats) {
	cr.run.Lock()
	cr.rep.ConnectFailures++
	ws.ConnectFailures++
	cr.run.Unlock()
}

// handshake sends hello and awaits the ack, bounded by the heartbeat
// timeout so a corrupt or wedged worker cannot hang the connect loop.
func (cr *coordRun) handshake(name string, conn net.Conn) (HelloAck, error) {
	cfg := &cr.c.Cfg
	var ack HelloAck
	hello := Handshake{Version: ProtoVersion, Fingerprint: cfg.Fingerprint, Mode: cfg.Mode,
		Epoch: cfg.coordEpoch()}
	if err := writeFrame(conn, encodeHello(hello)); err != nil {
		return ack, fmt.Errorf("cluster: writing hello to %s: %w", name, err)
	}
	type readRes struct {
		typ     byte
		payload []byte
		err     error
	}
	ch := make(chan readRes, 1)
	go func() {
		typ, payload, err := readFrame(conn)
		ch <- readRes{typ, payload, err}
	}()
	var r readRes
	select {
	case r = <-ch:
	case <-cr.clock.After(cfg.heartbeatTimeout()):
		conn.Close()
		return ack, fmt.Errorf("cluster: handshake with %s timed out after %v", name, cfg.heartbeatTimeout())
	case <-cr.run.Aborted():
		conn.Close()
		return ack, errAborted
	}
	if r.err != nil {
		return ack, fmt.Errorf("cluster: reading handshake from %s: %w", name, r.err)
	}
	switch r.typ {
	case msgHelloAck:
		ack, err := parseHelloAck(r.payload)
		if err != nil {
			return ack, err
		}
		if ack.Version != ProtoVersion {
			return ack, &HandshakeError{Worker: name,
				Reason: fmt.Sprintf("worker speaks protocol version %d, coordinator %d", ack.Version, ProtoVersion)}
		}
		if ack.Capacity < 1 {
			ack.Capacity = 1
		}
		return ack, nil
	case msgHelloNack:
		reason, err := parseHelloNack(r.payload)
		if err != nil {
			return ack, err
		}
		return ack, &HandshakeError{Worker: name, Reason: reason}
	default:
		return ack, &WireError{Msg: r.typ, Reason: "unexpected handshake reply"}
	}
}

// serveSession runs one session to completion: a reader, a
// heartbeater, and capacity assignment slots. It returns once the
// session is dead and all three have unwound.
func (cr *coordRun) serveSession(i int, sess *session) {
	select {
	case <-cr.fenceOpen:
	default:
		cr.c.Cfg.logf("cluster: worker %s holds its assignments until every worker acks epoch %d or is quarantined",
			sess.name, cr.rep.Epoch)
	}
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { defer aux.Done(); cr.readLoop(sess) }()
	go func() { defer aux.Done(); cr.heartbeat(sess) }()
	var slots sync.WaitGroup
	slots.Add(sess.capacity)
	for s := 0; s < sess.capacity; s++ {
		go func() { defer slots.Done(); cr.runSlot(i, sess) }()
	}
	slots.Wait()
	// All slots exited: either the session died under them, or the run
	// is complete/aborted/quarantined — say goodbye and tear down.
	sess.closing.Store(true)
	sess.write(frameBodyGoodbye())
	sess.kill(cr, nil)
	aux.Wait()
}

func frameBodyGoodbye() []byte { return []byte{msgGoodbye} }

// readLoop dispatches worker frames: results and exec errors are
// fenced by (seq, epoch) against the live inflight table and handed to
// the waiting slot; anything malformed kills the session.
func (cr *coordRun) readLoop(sess *session) {
	for {
		typ, payload, err := readFrame(sess.conn)
		if err != nil {
			if sess.closing.Load() {
				sess.kill(cr, nil)
			} else {
				sess.kill(cr, fmt.Errorf("cluster: read from worker %s: %w", sess.name, err))
			}
			return
		}
		sess.touch(cr.clock.Now())
		switch typ {
		case msgPong:
			// touch above is the point of pongs
		case msgResult:
			seqNo, epoch, res, err := parseResultMsg(payload)
			if err != nil {
				sess.kill(cr, err)
				return
			}
			cr.deliver(sess, int(seqNo), epoch, flightResult{payload: res})
		case msgExecErr:
			seqNo, epoch, msg, err := parseExecErr(payload)
			if err != nil {
				sess.kill(cr, err)
				return
			}
			if msg == "" {
				msg = "worker reported an unspecified execution error"
			}
			cr.deliver(sess, int(seqNo), epoch, flightResult{execErr: msg})
		case msgGoodbye:
			sess.kill(cr, fmt.Errorf("cluster: worker %s closed the session", sess.name))
			return
		default:
			sess.kill(cr, &WireError{Msg: typ, Reason: "unexpected message from worker"})
			return
		}
	}
}

// deliver fences one worker reply: only a reply matching a live
// inflight entry and its exact assignment epoch reaches a slot. A
// stale epoch or an already-reclaimed batch — the late result of a
// presumed-dead worker or a blown deadline — is dropped and counted,
// never merged: the commit token is the backstop, the fence means the
// token race is never even entered.
func (cr *coordRun) deliver(sess *session, seqNo int, epoch uint64, res flightResult) {
	cr.run.Lock()
	fl := sess.inflight[seqNo]
	if fl == nil || fl.epoch != epoch {
		cr.rep.FencedResults++
		cr.run.Unlock()
		cr.c.Cfg.logf("cluster: fenced late result for batch %d (epoch %d) from worker %s", seqNo, epoch, sess.name)
		return
	}
	delete(sess.inflight, seqNo)
	fl.delivered = true
	cr.run.Unlock()
	fl.ch <- res
}

// heartbeat pings the session and declares it lost when no frame has
// arrived within the timeout.
func (cr *coordRun) heartbeat(sess *session) {
	cfg := &cr.c.Cfg
	nonce := uint64(0)
	for {
		select {
		case <-cr.clock.After(cfg.heartbeatEvery()):
		case <-sess.dead:
			return
		case <-cr.run.Aborted():
			sess.kill(cr, errAborted)
			return
		}
		nonce++
		if err := sess.write(encodePingPong(msgPing, nonce)); err != nil {
			sess.kill(cr, fmt.Errorf("cluster: ping to worker %s: %w", sess.name, err))
			return
		}
		if idle := cr.clock.Now().Sub(time.Unix(0, sess.lastSeen.Load())); idle > cfg.heartbeatTimeout() {
			cr.run.Lock()
			cr.rep.HeartbeatTimeouts++
			cr.run.Unlock()
			sess.kill(cr, fmt.Errorf("cluster: worker %s silent for %v (timeout %v)", sess.name, idle, cfg.heartbeatTimeout()))
			return
		}
	}
}

// runSlot is one assignment slot on a session: wait for the epoch
// fence, then claim a batch, ship it, await the fenced reply (or
// deadline, or session death), and settle.
func (cr *coordRun) runSlot(i int, sess *session) {
	cfg := &cr.c.Cfg
	r := cr.run
	ws := &cr.rep.Workers[i]
	select {
	case <-cr.fenceOpen:
	case <-sess.dead:
		return
	case <-r.Aborted():
		return
	}
	gone := func() bool { return sess.deadFlag }
	for {
		r.Lock()
		att := r.Claim(i, gone)
		if att == nil {
			r.Unlock()
			return
		}
		epoch := cr.epoch
		cr.epoch++
		fl := &flight{att: att, epoch: epoch, ch: make(chan flightResult, 1)}
		sess.inflight[att.Batch.Seq] = fl
		r.Unlock()

		b := att.Batch
		span := cfg.Trace.ChildOn("worker:"+sess.name, fmt.Sprintf("batch %d", b.Seq),
			obs.Int("batch", int64(b.Seq)),
			obs.Int("epoch", int64(epoch)),
			obs.Int("seqs", int64(b.DB.NumSeqs())),
			obs.Int("residues", b.DB.TotalResidues()),
			obs.Int("attempt", int64(att.Tries)))
		if err := cfg.Inject.BeforeAssign(); err != nil {
			// An injected coordinator kill: the "primary" dies here, with
			// this batch assigned-but-unsent and others possibly in
			// flight — exactly the state a hot standby must take over
			// from. Failing the run models the process dying; the caller
			// (cmd/hmmsearch) exits without committing anything further.
			span.Annotate(obs.String("error", err.Error()))
			span.End()
			r.Fail(err)
			return
		}
		t0 := cr.clock.Now()
		if err := sess.write(encodeBatchMsg(uint64(b.Seq), epoch, uint64(b.Offset), b.DB)); err != nil {
			span.Annotate(obs.String("error", err.Error()))
			span.End()
			// kill requeues this flight along with the rest of the
			// session's inflight table.
			sess.kill(cr, fmt.Errorf("cluster: sending batch %d to worker %s: %w", b.Seq, sess.name, err))
			return
		}

		var deadlineCh <-chan time.Time
		if cfg.BatchDeadline > 0 {
			deadlineCh = cr.clock.After(cfg.BatchDeadline)
		}
		var res flightResult
		select {
		case res = <-fl.ch:
		case <-deadlineCh:
			// The reply may have raced the deadline; resolve under the
			// lock — exactly one of {slot, reader} removes the flight.
			r.Lock()
			if fl.delivered {
				r.Unlock()
				res = <-fl.ch
				break
			}
			delete(sess.inflight, b.Seq)
			cr.rep.Deadlines++
			ws.Deadlines++
			cr.rep.Requeues++
			ws.Requeues++
			next := r.Settle(i, att, dispatch.Requeue, nil)
			r.Unlock()
			span.Annotate(obs.String("error", "assignment deadline expired"))
			span.End()
			if !next {
				sess.kill(cr, fmt.Errorf("cluster: worker %s blew %d assignment deadlines", sess.name, cr.c.Cfg.Policy.Trip()))
				return
			}
			continue
		case <-sess.dead:
			// kill requeued everything undelivered; but the reply may
			// have been delivered just before death — then it is valid
			// and must be processed, or the batch would be lost with the
			// requeue already fenced off.
			r.Lock()
			d := fl.delivered
			r.Unlock()
			if !d {
				span.Annotate(obs.String("error", "session died"))
				span.End()
				return
			}
			res = <-fl.ch
		case <-r.Aborted():
			span.End()
			return
		}
		busy := cr.clock.Now().Sub(t0)

		if res.execErr != "" {
			span.Annotate(obs.String("error", res.execErr))
			span.End()
			r.Lock()
			cr.rep.RemoteFailures++
			ws.Failures++
			next := r.Settle(i, att, dispatch.Retry, fmt.Errorf("cluster: batch %d failed on workers after %d attempts: %s",
				b.Seq, att.Tries+1, res.execErr))
			tripped := r.Quarantined(i)
			r.Unlock()
			if tripped {
				sess.kill(cr, fmt.Errorf("cluster: worker %s failed %d executions in a row", sess.name, cr.c.Cfg.Policy.Trip()))
			}
			if !next {
				return
			}
			continue
		}

		committed, err := cr.commitFn(b, res.payload)
		span.End()
		r.Lock()
		if err != nil {
			r.Settle(i, att, dispatch.Fatal, err)
			r.Unlock()
			return
		}
		if committed {
			ws.Batches++
			ws.Residues += b.DB.TotalResidues()
			ws.Busy += busy
		} else {
			// Something else (a fenced requeue that re-ran, or the local
			// path) won the merge token first.
			cr.rep.FencedCommits++
		}
		r.Settle(i, att, dispatch.Done, nil)
		r.Unlock()
	}
}

// Run shards the produced batch stream across the configured workers.
// produce must call submit once per batch (stream order); submit
// blocks for backpressure and returns ErrDraining once a drain is
// requested. commit is called at most once per completed delivery
// with the worker's result payload; it must claim Batch.Commit, then
// journal and merge, and report whether the claim succeeded. The local
// degraded path (Cfg.Local) merges for itself.
//
// At Epoch > 1 (a takeover) no batch is assigned until every worker
// has acked the epoch or failed its connect episode and been
// quarantined, so no worker that could still ack the old primary ever
// sees a batch of this run.
//
// The report is returned for clean and drained runs; the first
// unrecoverable error (produce, commit, context, all-workers-lost with
// no local executor) aborts the run.
func (c *Coordinator) Run(ctx context.Context,
	produce func(submit func(b Batch) error) error,
	commit func(b Batch, payload []byte) (committed bool, err error),
) (*Report, error) {
	if len(c.Cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if commit == nil {
		return nil, errors.New("cluster: no commit callback")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(c.Cfg.Workers)
	rep := &Report{Workers: make([]WorkerStats, n), Epoch: c.Cfg.coordEpoch()}
	for i := range rep.Workers {
		rep.Workers[i].Name = c.Cfg.Workers[i].Name
	}
	cr := &coordRun{
		c:            c,
		rep:          rep,
		ctx:          ctx,
		commitFn:     commit,
		clock:        dispatch.OrWall(c.Cfg.Policy.Clock),
		connectedOne: make([]bool, n),
		fenceOpen:    make(chan struct{}),
	}
	if rep.Epoch > 1 {
		cr.fence.Add(n)
		go func() {
			cr.fence.Wait()
			close(cr.fenceOpen)
		}()
	} else {
		close(cr.fenceOpen)
	}
	cfg := dispatch.Config{
		Name:        "cluster",
		Executors:   n,
		QueueDepth:  c.Cfg.QueueDepth,
		Policy:      c.Cfg.Policy,
		Drain:       c.Cfg.Drain,
		ErrAllLost:  ErrAllWorkersLost,
		Quarantined: cr.quarantined,
	}
	if c.Cfg.Local != nil {
		cfg.Fallback = cr.local
	}
	cr.run = dispatch.New(cfg)
	for i := 0; i < n; i++ {
		cr.run.Go(func() { cr.runWorker(i) })
	}
	tot, err := cr.run.Feed(ctx, produce)
	if err != nil {
		return nil, err
	}
	rep.Wall, rep.Drained = tot.Wall, tot.Drained
	rep.Batches, rep.Seqs, rep.Residues = tot.Batches, tot.Seqs, tot.Residues
	rep.LocalBatches = tot.Fallbacks
	rep.FencedCommits += tot.FallbackLost
	if rep.Epoch > 1 {
		for i, ok := range cr.connectedOne {
			if !ok {
				rep.Workers[i].Unfenced = true
				rep.Unfenced++
			}
		}
	}
	return rep, nil
}
