package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"hmmer3gpu/internal/seq"
)

// Exec computes one batch on the worker and returns the opaque result
// payload shipped back to the coordinator (the same encoding the
// coordinator journals and merges — pipeline.EncodeResultPayload).
type Exec func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error)

// WorkerServer serves the worker side of the cluster protocol. One
// server handles any number of coordinator connections (in practice
// one); each connection validates the handshake, then executes up to
// Capacity batches concurrently, writing results back as they finish.
type WorkerServer struct {
	// Name identifies the worker in handshakes and coordinator reports.
	Name string
	// Capacity is the number of batches the worker accepts in flight
	// (its device count). Zero means 1.
	Capacity int
	// Fingerprint and Mode must match the coordinator's hello, or the
	// connection is nacked — a worker launched against a different
	// model, thresholds, or simulator cost model must never compute a
	// batch.
	Fingerprint [32]byte
	Mode        byte
	// Exec computes one batch. Required.
	Exec Exec
	// Drain, when non-nil and closed, puts the server into graceful
	// drain: in-flight batches finish and their results are written
	// back, newly assigned batches are answered with an exec error
	// ("worker draining") so the coordinator requeues them elsewhere,
	// and Serve stops accepting new coordinator connections. Contrast
	// with cancelling Serve's context, which aborts in-flight work.
	Drain <-chan struct{}
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)

	// maxEpoch is the highest coordinator epoch this server has ever
	// acked, across every connection in its lifetime. It is the
	// worker's half of the failover fence: a hello with a lower
	// epoch is nacked (a stale primary reconnecting after a takeover),
	// and a batch frame arriving on a session whose acked epoch has
	// since been superseded is answered with a stale-epoch exec error,
	// never executed.
	maxEpoch atomic.Uint64

	// fenced counts batch assignments refused for a stale epoch.
	fenced atomic.Int64
}

// MaxEpoch returns the highest coordinator epoch the server has acked
// (0 before any coordinator connects).
func (ws *WorkerServer) MaxEpoch() uint64 { return ws.maxEpoch.Load() }

// FencedBatches returns the number of batch assignments this server
// refused because their session's epoch had been superseded.
func (ws *WorkerServer) FencedBatches() int64 { return ws.fenced.Load() }

// drainingMsg is the exec-error text a draining worker answers new
// batch assignments with; the coordinator requeues those batches.
const drainingMsg = "worker draining"

// staleEpochMsg prefixes the exec-error text a worker answers batch
// assignments from a superseded coordinator epoch with. The batch is
// never executed: the stale primary burns its retry budget and fails,
// while the new primary (whose hello raised the fence) proceeds.
const staleEpochMsg = "stale coordinator epoch"

// draining reports whether Drain is closed (false when unset).
func (ws *WorkerServer) draining() bool {
	select {
	case <-ws.Drain: // never fires while Drain is nil
		return true
	default:
		return false
	}
}

func (ws *WorkerServer) logf(format string, args ...any) {
	if ws.Logf != nil {
		ws.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on ln until ctx is cancelled
// or the listener is closed, serving each connection on its own
// goroutine. It returns nil on a clean shutdown.
func (ws *WorkerServer) Serve(ctx context.Context, ln net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-ctx.Done():
		case <-ws.Drain:
			// Draining: no new coordinators; existing connections keep
			// serving (refusing new batches) until they end.
		}
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ws.ServeConn(ctx, conn); err != nil {
				ws.logf("worker %s: connection ended: %v", ws.Name, err)
			}
		}()
	}
}

// ServeConn serves one coordinator connection to completion: handshake,
// then the batch/result loop until the coordinator says goodbye, the
// connection drops, or ctx is cancelled. In-process workers call this
// directly on one end of a net.Pipe, so the pipe and TCP paths run the
// same code.
func (ws *WorkerServer) ServeConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		// A cancelled context must unblock reads on the raw conn.
		<-ctx.Done()
		conn.Close()
	}()

	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("cluster: worker %s: reading hello: %w", ws.Name, err)
	}
	if typ != msgHello {
		return &HandshakeError{Worker: ws.Name, Reason: fmt.Sprintf("first frame is type %d, want hello", typ)}
	}
	sessEpoch, reason := ws.vetHello(payload)
	if reason != "" {
		writeFrame(conn, encodeHelloNack(reason))
		return &HandshakeError{Worker: ws.Name, Reason: reason}
	}
	capacity := ws.Capacity
	if capacity < 1 {
		capacity = 1
	}
	var wmu sync.Mutex // serialises result/pong writes from exec goroutines
	write := func(body []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, body)
	}
	if err := write(encodeHelloAck(HelloAck{Version: ProtoVersion, Capacity: capacity, Name: ws.Name})); err != nil {
		return fmt.Errorf("cluster: worker %s: writing helloAck: %w", ws.Name, err)
	}
	ws.logf("worker %s: coordinator connected (capacity %d, epoch %d)", ws.Name, capacity, sessEpoch)

	var execs sync.WaitGroup
	defer execs.Wait() // cancel() above stops them; wait so conn.Close is last
	slots := make(chan struct{}, capacity)
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("cluster: worker %s: read: %w", ws.Name, err)
		}
		switch typ {
		case msgPing:
			nonce, err := parsePingPong(typ, payload)
			if err != nil {
				return err
			}
			if err := write(encodePingPong(msgPong, nonce)); err != nil {
				return err
			}
		case msgBatch:
			seqNo, epoch, _, db, err := parseBatchMsg(payload)
			if err != nil {
				return err
			}
			if max := ws.maxEpoch.Load(); sessEpoch < max {
				// The fence: a batch from a session whose acked epoch has
				// been superseded by a newer coordinator is refused,
				// never executed — the old primary cannot double-commit
				// work the new primary owns.
				ws.fenced.Add(1)
				ws.logf("worker %s: fenced batch %d from stale epoch %d (worker at %d)", ws.Name, seqNo, sessEpoch, max)
				if err := write(encodeExecErr(seqNo, epoch, fmt.Sprintf("%s: session epoch %d, worker fenced at %d", staleEpochMsg, sessEpoch, max))); err != nil {
					return err
				}
				break
			}
			// The slot wait lives in the goroutine so the read loop keeps
			// answering pings (and drain refusals) while all slots are
			// busy; the coordinator's capacity window bounds how many
			// assignments can pile up here.
			execs.Add(1)
			go func() {
				defer execs.Done()
				select {
				case slots <- struct{}{}:
				case <-ws.Drain:
					write(encodeExecErr(seqNo, epoch, drainingMsg))
					return
				case <-ctx.Done():
					return
				}
				defer func() { <-slots }()
				if ws.draining() {
					write(encodeExecErr(seqNo, epoch, drainingMsg))
					return
				}
				res, err := ws.Exec(ctx, seqNo, db)
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					write(encodeExecErr(seqNo, epoch, err.Error()))
					return
				}
				write(encodeResultMsg(seqNo, epoch, res))
			}()
		case msgGoodbye:
			ws.logf("worker %s: coordinator said goodbye", ws.Name)
			execs.Wait()
			return nil
		default:
			return &WireError{Msg: typ, Reason: "unexpected message from coordinator"}
		}
	}
}

// vetHello parses and validates a hello and returns its epoch, or why
// it is refused. A clean hello also raises the server-wide epoch fence
// as a side effect — atomically with the staleness check, so two
// racing hellos resolve to one winner and one nack-or-equal.
func (ws *WorkerServer) vetHello(payload []byte) (epoch uint64, reason string) {
	h, err := parseHello(payload)
	switch {
	case err != nil:
		return 0, err.Error()
	case h.Version != ProtoVersion:
		return 0, fmt.Sprintf("protocol version %d, worker speaks %d", h.Version, ProtoVersion)
	case h.Fingerprint != ws.Fingerprint:
		return 0, fmt.Sprintf("config fingerprint %x does not match worker's %x",
			h.Fingerprint[:6], ws.Fingerprint[:6])
	case h.Mode != ws.Mode:
		return 0, fmt.Sprintf("simulator mode %d does not match worker's %d", h.Mode, ws.Mode)
	}
	for {
		max := ws.maxEpoch.Load()
		if h.Epoch < max {
			return 0, fmt.Sprintf("%s %d: this worker has acked epoch %d", staleEpochMsg, h.Epoch, max)
		}
		if ws.maxEpoch.CompareAndSwap(max, h.Epoch) {
			return h.Epoch, ""
		}
	}
}
