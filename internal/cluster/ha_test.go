package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
)

// haClient extends the frame-by-frame test client with epoch hellos
// for the failover tests.
type haClient struct{ drainClient }

// helloEpoch sends a hello at epoch and reports the worker's answer.
func (c *haClient) helloEpoch(fp [32]byte, mode byte, epoch uint64) (acked bool, nackReason string) {
	return c.sendHello(encodeHello(Handshake{Version: ProtoVersion, Fingerprint: fp, Mode: mode, Epoch: epoch}))
}

// sendHello sends an encoded hello and reports the worker's answer.
func (c *haClient) sendHello(body []byte) (acked bool, nackReason string) {
	c.t.Helper()
	if err := writeFrame(c.conn, body); err != nil {
		c.t.Fatalf("hello: %v", err)
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		c.t.Fatalf("hello reply: %v", err)
	}
	switch typ {
	case msgHelloAck:
		if _, err := parseHelloAck(payload); err != nil {
			c.t.Fatal(err)
		}
		return true, ""
	case msgHelloNack:
		reason, err := parseHelloNack(payload)
		if err != nil {
			c.t.Fatal(err)
		}
		return false, reason
	default:
		c.t.Fatalf("hello answered with frame type %d", typ)
		return false, ""
	}
}

func haConn(t *testing.T, ws *WorkerServer) *haClient {
	t.Helper()
	c1, c2 := net.Pipe()
	go ws.ServeConn(context.Background(), c2)
	t.Cleanup(func() { c1.Close() })
	return &haClient{drainClient{t: t, conn: c1}}
}

// The epoch round-trips, and the byte that once carried the
// coordinator's role is written as 0.
func TestHelloRoleEpochRoundTrip(t *testing.T) {
	h := Handshake{Version: ProtoVersion, Mode: 3, Epoch: 7}
	for i := range h.Fingerprint {
		h.Fingerprint[i] = byte(i * 5)
	}
	body := encodeHello(h)
	if role := body[1+34]; role != 0 {
		t.Fatalf("reserved role byte = %d, want 0", role)
	}
	got, err := parseHello(body[1:])
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

// A hello whose reserved role byte is set (a standby coordinator's
// hello under the old protocol) is nacked with a reason that names the
// byte, and raises no fence; a clean hello still acks.
func TestStandbyRoleByteRefused(t *testing.T) {
	ws := &WorkerServer{Name: "w", Fingerprint: testFP, Mode: 1, Exec: testExec}
	body := encodeHello(Handshake{Version: ProtoVersion, Fingerprint: testFP, Mode: 1, Epoch: 3})
	body[1+34] = 1
	ok, reason := haConn(t, ws).sendHello(body)
	if ok {
		t.Fatal("hello with a nonzero role byte acked")
	}
	if !strings.Contains(reason, "byte 34 is 1") {
		t.Fatalf("nack reason %q does not name the reserved byte", reason)
	}
	if got := ws.MaxEpoch(); got != 0 {
		t.Fatalf("MaxEpoch after a refused hello = %d, want 0", got)
	}
	if ok, reason := haConn(t, ws).helloEpoch(testFP, 1, 3); !ok {
		t.Fatalf("clean hello nacked: %s", reason)
	}
}

// A worker that has acked a newer coordinator nacks a hello from a
// stale epoch — across connections, not just within one.
func TestStaleActiveHelloNacked(t *testing.T) {
	ws := &WorkerServer{Name: "w", Fingerprint: testFP, Mode: 1, Exec: testExec}

	if ok, _ := haConn(t, ws).helloEpoch(testFP, 1, 2); !ok {
		t.Fatal("epoch-2 hello nacked")
	}
	if got := ws.MaxEpoch(); got != 2 {
		t.Fatalf("MaxEpoch = %d, want 2", got)
	}

	ok, reason := haConn(t, ws).helloEpoch(testFP, 1, 1)
	if ok {
		t.Fatal("stale epoch-1 hello acked")
	}
	if !strings.Contains(reason, staleEpochMsg) {
		t.Fatalf("nack reason %q does not mention the epoch fence", reason)
	}

	// Equal epoch must still be acked: the same primary reconnecting
	// after a transient drop is not a failover.
	if ok, reason := haConn(t, ws).helloEpoch(testFP, 1, 2); !ok {
		t.Fatalf("same-epoch reconnect nacked: %s", reason)
	}
}

// A session whose acked epoch is superseded mid-run gets its batch
// assignments answered with a stale-epoch exec error, never executed.
func TestBatchFencedOnSupersededSession(t *testing.T) {
	executed := make(chan uint64, 8)
	ws := &WorkerServer{Name: "w", Fingerprint: testFP, Mode: 1,
		Exec: func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
			executed <- seqNo
			return execPayload(seqNo, db), nil
		}}

	old := haConn(t, ws)
	if ok, _ := old.helloEpoch(testFP, 1, 1); !ok {
		t.Fatal("epoch-1 hello nacked")
	}
	// The old primary still works before the takeover.
	old.sendBatch(0)
	if seqNo, msg := old.next(); seqNo != 0 || msg != "" {
		t.Fatalf("pre-takeover batch got (%d, %q)", seqNo, msg)
	}

	// Takeover: a new coordinator acks at epoch 2.
	if ok, _ := haConn(t, ws).helloEpoch(testFP, 1, 2); !ok {
		t.Fatal("epoch-2 hello nacked")
	}

	// The stale session's next assignment is fenced.
	old.sendBatch(1)
	seqNo, msg := old.next()
	if seqNo != 1 || !strings.Contains(msg, staleEpochMsg) {
		t.Fatalf("post-takeover batch got (%d, %q), want stale-epoch refusal", seqNo, msg)
	}
	if got := ws.FencedBatches(); got != 1 {
		t.Fatalf("FencedBatches = %d, want 1", got)
	}
	select {
	case got := <-executed:
		if got != 0 {
			t.Fatalf("fenced batch %d was executed", got)
		}
	default:
	}
	select {
	case got := <-executed:
		t.Fatalf("fenced batch %d was executed", got)
	case <-time.After(50 * time.Millisecond):
	}
}

// The coordinator kill fires once, at its assignment ordinal, and is
// logged in the schedule.
func TestCoordinatorKillFiresOnce(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.SetCoordinatorKill(2)
	for n := 0; n < 2; n++ {
		if err := fi.BeforeAssign(); err != nil {
			t.Fatalf("assignment %d: unexpected kill: %v", n, err)
		}
	}
	err := fi.BeforeAssign()
	if !errors.Is(err, ErrInjectedCoordinatorKill) {
		t.Fatalf("assignment 2: err = %v, want ErrInjectedCoordinatorKill", err)
	}
	// One-shot: later assignments proceed (the kill models one crash).
	if err := fi.BeforeAssign(); err != nil {
		t.Fatalf("assignment 3: unexpected second kill: %v", err)
	}
	if sched := strings.Join(fi.Schedule(), "\n"); !strings.Contains(sched, "coordinator kill") {
		t.Fatalf("schedule does not record the coordinator kill: %s", sched)
	}
}

// BeforeAssign fires inside a real run: the coordinator stops with
// ErrInjectedCoordinatorKill after exactly n assignments, leaving later
// batches unassigned — the crash window the standby recovers from.
func TestCoordinatorKillStopsRun(t *testing.T) {
	fi := NewFaultInjector(1)
	fi.SetCoordinatorKill(3)
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(1, 0, testExec),
		Fingerprint: testFP,
		Inject:      fi,
		Policy:      dispatch.Policy{MaxRetries: 1},
	}}
	_, err := c.Run(context.Background(), produceN(8), cl.fn)
	if !errors.Is(err, ErrInjectedCoordinatorKill) {
		t.Fatalf("Run err = %v, want ErrInjectedCoordinatorKill", err)
	}
	if got := len(cl.snapshot()); got >= 8 {
		t.Fatalf("killed run committed all %d batches", got)
	}
}

// End-to-end failover against shared worker state: the primary dies
// mid-run, a takeover coordinator dials the same workers afresh at a
// higher epoch and finishes the work, and a stale primary reconnecting
// at the old epoch is refused.
func TestStandbyTakeoverRedialsWorkers(t *testing.T) {
	const nWorkers, nBatches = 3, 8
	// Persistent servers: the epoch fence lives in the WorkerServer, so
	// primary and standby must dial the same instances.
	servers := make([]*WorkerServer, nWorkers)
	specs := make([]WorkerSpec, nWorkers)
	for i := range servers {
		ws := &WorkerServer{Name: fmt.Sprintf("w%d", i), Capacity: 1,
			Fingerprint: testFP, Mode: 1, Exec: testExec}
		servers[i] = ws
		specs[i] = WorkerSpec{Name: ws.Name, Dial: func(ctx context.Context) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go ws.ServeConn(context.Background(), c2)
			return c1, nil
		}}
	}

	// Primary run at epoch 1, killed after 4 assignments.
	fi := NewFaultInjector(1)
	fi.SetCoordinatorKill(4)
	primaryLog := newCommitLog()
	primary := &Coordinator{Cfg: Config{Workers: specs, Fingerprint: testFP,
		Mode: 1, Epoch: 1, Inject: fi}}
	if _, err := primary.Run(context.Background(), produceN(nBatches), primaryLog.fn); !errors.Is(err, ErrInjectedCoordinatorKill) {
		t.Fatalf("primary err = %v, want ErrInjectedCoordinatorKill", err)
	}
	committed := primaryLog.snapshot()

	// Takeover: fresh dials to the same workers, the remaining batches
	// at epoch 2.
	standbyLog := newCommitLog()
	standby := &Coordinator{Cfg: Config{Workers: specs, Fingerprint: testFP,
		Mode: 1, Epoch: 2}}
	rep, err := standby.Run(context.Background(), func(submit func(b Batch) error) error {
		off := 0
		for i := 0; i < nBatches; i++ {
			db := testBatchDB(i)
			if _, done := committed[i]; !done {
				if err := submit(Batch{Seq: i, Offset: off, DB: db}); err != nil {
					return err
				}
			}
			off += db.NumSeqs()
		}
		return nil
	}, standbyLog.fn)
	if err != nil {
		t.Fatalf("standby Run: %v", err)
	}
	if rep.Epoch != 2 {
		t.Fatalf("standby report epoch = %d, want 2", rep.Epoch)
	}

	// Exactly-once across the two runs: every batch committed by
	// exactly one coordinator, payloads identical to a clean run.
	for i := 0; i < nBatches; i++ {
		p, fromPrimary := committed[i]
		s, fromStandby := standbyLog.snapshot()[i]
		if fromPrimary == fromStandby {
			t.Fatalf("batch %d: primary=%v standby=%v, want exactly one", i, fromPrimary, fromStandby)
		}
		got := p
		if fromStandby {
			got = s
		}
		if want := execPayload(uint64(i), testBatchDB(i)); string(got) != string(want) {
			t.Fatalf("batch %d payload = %q, want %q", i, got, want)
		}
	}

	// A stale primary reconnecting at epoch 1 is nacked by every worker.
	for _, ws := range servers {
		if got := ws.MaxEpoch(); got != 2 {
			t.Fatalf("worker %s MaxEpoch = %d, want 2", ws.Name, got)
		}
	}
	stale := &Coordinator{Cfg: Config{Workers: specs, Fingerprint: testFP,
		Mode: 1, Epoch: 1, MaxConnects: 1,
		Policy: dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: time.Millisecond}}}
	if _, err := stale.Run(context.Background(), produceN(1), newCommitLog().fn); err == nil {
		t.Fatal("stale epoch-1 coordinator ran to completion after takeover")
	}
}

// At a takeover epoch no batch is assigned until every worker has
// acked the epoch: w1's hello is held on a channel while w0 is up, and
// w0 may execute nothing before w1 is fenced.
func TestTakeoverFencesEveryWorkerBeforeDispatch(t *testing.T) {
	const epoch = 2
	servers := make([]*WorkerServer, 2)
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	exec := func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
		if got := servers[1].MaxEpoch(); got != epoch {
			t.Errorf("batch %d executed while worker w1 is at epoch %d, want %d", seqNo, got, epoch)
		}
		open()
		return execPayload(seqNo, db), nil
	}
	specs := make([]WorkerSpec, len(servers))
	for i := range servers {
		ws := &WorkerServer{Name: fmt.Sprintf("w%d", i), Capacity: 1, Fingerprint: testFP, Mode: 1, Exec: exec}
		servers[i] = ws
		specs[i] = WorkerSpec{Name: ws.Name, Dial: func(ctx context.Context) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go func() {
				if ws.Name == "w1" {
					<-release
				}
				ws.ServeConn(context.Background(), c2)
			}()
			return c1, nil
		}}
	}
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{Workers: specs, Fingerprint: testFP, Mode: 1, Epoch: epoch,
		Logf: func(format string, args ...any) {
			// w0 is up and holding its slots at the fence: let w1 in.
			if strings.Contains(format, "holds its assignments") {
				open()
			}
		}}}
	rep, err := c.Run(context.Background(), produceN(2), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 2)
	if rep.Unfenced != 0 {
		t.Fatalf("Unfenced = %d, want 0: %s", rep.Unfenced, rep)
	}
}

// A worker unreachable through a takeover run never acks its epoch: the
// run proceeds without it and reports it unfenced.
func TestTakeoverReportsUnfencedWorker(t *testing.T) {
	inject := injectWorker(1, 1, func(p *FaultPlan) { p.RefuseConnects = 999 })
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{Workers: pipeWorkers(2, 1, testExec), Fingerprint: testFP, Mode: 1,
		Epoch: 2, Inject: inject, Policy: dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond}}}
	rep, err := c.Run(context.Background(), produceN(3), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 3)
	if rep.Unfenced != 1 || !rep.Workers[1].Unfenced || rep.Workers[0].Unfenced {
		t.Fatalf("want w1 alone unfenced: %s", rep)
	}
	if !strings.Contains(rep.String(), "[unfenced]") {
		t.Fatalf("report does not mark the unfenced worker:\n%s", rep)
	}
	reg := obs.NewRegistry()
	rep.Record(reg)
	if got, ok := reg.Get("hmmer_cluster_unfenced_workers"); !ok || got != 1 {
		t.Fatalf("hmmer_cluster_unfenced_workers = %v (present %v), want 1", got, ok)
	}
}

// The flock lease: exclusive while held, released on close, and the
// waiter acquires it promptly.
func TestFileLeadership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.lock")
	acquire := AcquireFileLeadership(path, time.Millisecond)

	release1, err := acquire(context.Background())
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// A second acquire blocks until the first releases.
	got := make(chan error, 1)
	var release2 func()
	go func() {
		r, err := acquire(context.Background())
		release2 = r
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("second acquire succeeded while lock held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release1()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("second acquire: %v", err)
		}
		release2()
	case <-time.After(5 * time.Second):
		t.Fatal("second acquire never completed after release")
	}

	// Context cancellation unblocks a waiter.
	release3, err := acquire(context.Background())
	if err != nil {
		t.Fatalf("third acquire: %v", err)
	}
	defer release3()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled acquire err = %v, want deadline exceeded", err)
	}
}
