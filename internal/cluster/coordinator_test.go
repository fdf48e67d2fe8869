package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
)

var testFP = func() [32]byte {
	var fp [32]byte
	for i := range fp {
		fp[i] = byte(i * 3)
	}
	return fp
}()

// execPayload is the deterministic stand-in for a real batch search:
// any executor (remote worker or degraded local path) produces the
// same bytes for the same batch, so commits can be compared across
// clean and faulted runs.
func execPayload(seqNo uint64, db *seq.Database) []byte {
	sum := 0
	for _, s := range db.Seqs {
		for _, r := range s.Residues {
			sum += int(r)
		}
	}
	return []byte(fmt.Sprintf("%d:%d:%d:%d", seqNo, db.NumSeqs(), db.TotalResidues(), sum))
}

func testExec(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
	return execPayload(seqNo, db), nil
}

// pipeWorkers returns n in-process workers, each a WorkerServer served
// over one end of a net.Pipe per dial — the same wire code path the
// TCP transport uses.
func pipeWorkers(n int, mode byte, exec Exec) []WorkerSpec {
	specs := make([]WorkerSpec, n)
	for i := 0; i < n; i++ {
		ws := &WorkerServer{
			Name:        fmt.Sprintf("w%d", i),
			Capacity:    1,
			Fingerprint: testFP,
			Mode:        mode,
			Exec:        exec,
		}
		specs[i] = WorkerSpec{
			Name: ws.Name,
			Dial: func(ctx context.Context) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go ws.ServeConn(context.Background(), c2)
				return c1, nil
			},
		}
	}
	return specs
}

// commitLog is the test commit callback: it claims the merge token,
// stores the payload, and fails loudly on any double merge — the
// exactly-once property every test rides on.
type commitLog struct {
	mu  sync.Mutex
	got map[int][]byte
}

func newCommitLog() *commitLog { return &commitLog{got: make(map[int][]byte)} }

func (cl *commitLog) fn(b Batch, payload []byte) (bool, error) {
	if !b.Commit() {
		return false, nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, ok := cl.got[b.Seq]; ok {
		return true, fmt.Errorf("batch %d merged twice", b.Seq)
	}
	cl.got[b.Seq] = append([]byte(nil), payload...)
	return true, nil
}

func (cl *commitLog) snapshot() map[int][]byte {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make(map[int][]byte, len(cl.got))
	for k, v := range cl.got {
		out[k] = v
	}
	return out
}

func produceN(n int) func(submit func(b Batch) error) error {
	return func(submit func(b Batch) error) error {
		off := 0
		for i := 0; i < n; i++ {
			db := testBatchDB(i)
			if err := submit(Batch{Seq: i, Offset: off, DB: db}); err != nil {
				return err
			}
			off += db.NumSeqs()
		}
		return nil
	}
}

// wantExact checks that exactly batches 0..n-1 committed, each with
// the payload a clean single executor would produce.
func wantExact(t *testing.T, cl *commitLog, n int) {
	t.Helper()
	got := cl.snapshot()
	if len(got) != n {
		t.Fatalf("committed %d batches, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		want := execPayload(uint64(i), testBatchDB(i))
		if string(got[i]) != string(want) {
			t.Fatalf("batch %d payload = %q, want %q", i, got[i], want)
		}
	}
}

func TestCleanShardedRun(t *testing.T) {
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(3, 1, testExec),
		Fingerprint: testFP,
		Mode:        1,
	}}
	rep, err := c.Run(context.Background(), produceN(8), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 8)
	if rep.Batches != 8 || rep.Requeues != 0 || rep.Quarantines != 0 || rep.Degraded {
		t.Fatalf("unexpected fault activity on clean run: %s", rep)
	}
	total := 0
	for _, w := range rep.Workers {
		total += w.Batches
	}
	if total != 8 {
		t.Fatalf("worker batch totals = %d, want 8", total)
	}
}

func TestTCPShardedRun(t *testing.T) {
	var specs []WorkerSpec
	for i := 0; i < 2; i++ {
		ws := &WorkerServer{
			Name:        fmt.Sprintf("tcp%d", i),
			Capacity:    2,
			Fingerprint: testFP,
			Mode:        0,
			Exec:        testExec,
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go ws.Serve(ctx, ln)
		addr := ln.Addr().String()
		specs = append(specs, WorkerSpec{
			Name: ws.Name,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			},
		})
	}
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{Workers: specs, Fingerprint: testFP, Mode: 0}}
	rep, err := c.Run(context.Background(), produceN(6), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 6)
	if rep.Faulted() {
		t.Fatalf("clean TCP run reported faults: %s", rep)
	}
}

// injectWorker returns an injector drawing from seed whose plan for
// worker w is a NewFaultPlan adjusted by set.
func injectWorker(seed int64, w int, set func(p *FaultPlan)) *FaultInjector {
	p := NewFaultPlan()
	set(p)
	fi := NewFaultInjector(seed)
	fi.Plan(w, p)
	return fi
}

// afterLog holds spec's dials until the coordinator logs a line that
// starts with prefix. The returned logf goes in Config.Logf.
func afterLog(spec WorkerSpec, prefix string) (WorkerSpec, func(string, ...any)) {
	seen := make(chan struct{})
	var once sync.Once
	logf := func(format string, args ...any) {
		if strings.HasPrefix(fmt.Sprintf(format, args...), prefix) {
			once.Do(func() { close(seen) })
		}
	}
	dial := spec.Dial
	spec.Dial = func(ctx context.Context) (net.Conn, error) {
		select {
		case <-seen:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return dial(ctx)
	}
	return spec, logf
}

func TestWorkerKillRequeuesExactlyOnce(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.KillAtBatch, p.StayDead = 0, true })
	cl := newCommitLog()
	workers := pipeWorkers(2, 0, testExec)
	// Worker 1 connects only once worker 0 has taken batch 0, lost it
	// to the injected fault and been quarantined on its refused redial.
	var logf func(string, ...any)
	workers[1], logf = afterLog(workers[1], "cluster: worker w0 quarantined")
	c := &Coordinator{Cfg: Config{
		Workers:     workers,
		Fingerprint: testFP,
		Policy:      dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		Inject:      inject,
		Logf:        logf,
	}}
	rep, err := c.Run(context.Background(), produceN(4), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 4)
	if rep.Requeues != 1 {
		t.Fatalf("Requeues = %d, want exactly 1 (the killed batch)", rep.Requeues)
	}
	if !rep.Workers[0].Quarantined {
		t.Fatalf("worker 0 not quarantined after kill + refused reconnects: %s", rep)
	}
	if rep.Workers[1].Batches != 4 {
		t.Fatalf("worker 1 completed %d batches, want all 4", rep.Workers[1].Batches)
	}
	if rep.ConnectFailures == 0 {
		t.Fatalf("expected refused reconnects to be counted: %s", rep)
	}
}

// gatedClock is the wall clock, except that every wait of exactly d
// lasts until gate closes.
type gatedClock struct {
	d    time.Duration
	gate <-chan struct{}
}

func (c gatedClock) Now() time.Time { return time.Now() }

func (c gatedClock) After(d time.Duration) <-chan time.Time {
	if d != c.d {
		return time.After(d)
	}
	ch := make(chan time.Time, 1)
	go func() {
		<-c.gate
		ch <- time.Now()
	}()
	return ch
}

// closeHook closes closed when the connection is first closed.
type closeHook struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeHook) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// A worker killed mid-run owes the run its reconnect episode even when
// the other workers finish the stream first: its backoff here outlasts
// the whole stream, and it still ends the run quarantined, not in
// limbo between its lost session and its first redial.
func TestKilledWorkerQuarantinedAfterStreamEnds(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.KillAtBatch, p.StayDead = 0, true })
	cl := newCommitLog()
	workers := pipeWorkers(2, 0, testExec)
	// Worker 1 connects once worker 0 has lost batch 0, runs the whole
	// stream, and its goodbye (the run is done) opens the backoff gate.
	var logf func(string, ...any)
	workers[1], logf = afterLog(workers[1], "cluster: worker w0 session ended")
	done := make(chan struct{})
	dial := workers[1].Dial
	workers[1].Dial = func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return &closeHook{Conn: conn, closed: done}, nil
	}
	const backoff = 3 * time.Millisecond
	c := &Coordinator{Cfg: Config{
		Workers:     workers,
		Fingerprint: testFP,
		Policy: dispatch.Policy{BackoffBase: backoff, BackoffCap: backoff,
			Clock: gatedClock{d: backoff, gate: done}},
		Inject: inject,
		Logf:   logf,
	}}
	rep, err := c.Run(context.Background(), produceN(4), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 4)
	if rep.Requeues != 1 || rep.Workers[1].Batches != 4 {
		t.Fatalf("want 1 requeue and all 4 batches on worker 1: %s", rep)
	}
	if !rep.Workers[0].Quarantined || rep.Quarantines != 1 {
		t.Fatalf("worker 0 not quarantined after the stream ended: %s", rep)
	}
	if rep.Workers[0].ConnectFailures != DefaultMaxConnects {
		t.Fatalf("worker 0 made %d refused dials, want %d: %s",
			rep.Workers[0].ConnectFailures, DefaultMaxConnects, rep)
	}
}

func TestTornFrameDiscardedAndRequeuedOnce(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.TornAtBatch, p.StayDead = 0, true })
	cl := newCommitLog()
	workers := pipeWorkers(2, 0, testExec)
	// Worker 1 connects only once worker 0 has taken batch 0, lost it
	// to the injected fault and been quarantined on its refused redial.
	var logf func(string, ...any)
	workers[1], logf = afterLog(workers[1], "cluster: worker w0 quarantined")
	c := &Coordinator{Cfg: Config{
		Workers:     workers,
		Fingerprint: testFP,
		Policy:      dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		Inject:      inject,
		Logf:        logf,
	}}
	rep, err := c.Run(context.Background(), produceN(4), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 4)
	if rep.Requeues != 1 {
		t.Fatalf("Requeues = %d, want exactly 1 (the torn batch)", rep.Requeues)
	}
	sched := inject.Schedule()
	found := false
	for _, s := range sched {
		if strings.Contains(s, "torn-frame") {
			found = true
		}
	}
	if !found {
		t.Fatalf("injector schedule %v missing torn-frame decision", sched)
	}
}

// fenceStub is a hand-rolled worker that withholds its first reply
// until the batch has been reclaimed on deadline, then sends the stale
// result — which must be fenced — followed by the live one.
func fenceStub(conn net.Conn) {
	defer conn.Close()
	if typ, _, err := readFrame(conn); err != nil || typ != msgHello {
		return
	}
	writeFrame(conn, encodeHelloAck(HelloAck{Version: ProtoVersion, Capacity: 1, Name: "stub"}))
	_, p, err := readFrame(conn)
	if err != nil {
		return
	}
	seq0, e0, _, db0, err := parseBatchMsg(p)
	if err != nil {
		return
	}
	// Withhold the reply; the coordinator's deadline reclaims the batch
	// and reassigns it (same session — it is the only worker).
	_, p, err = readFrame(conn)
	if err != nil {
		return
	}
	seq1, e1, _, db1, err := parseBatchMsg(p)
	if err != nil {
		return
	}
	// Late result under the stale epoch: must be fenced, never merged.
	writeFrame(conn, encodeResultMsg(seq0, e0, execPayload(seq0, db0)))
	// Live result under the current epoch: commits.
	writeFrame(conn, encodeResultMsg(seq1, e1, execPayload(seq1, db1)))
	for {
		if _, _, err := readFrame(conn); err != nil {
			return
		}
	}
}

func TestLateResultAfterDeadlineIsFenced(t *testing.T) {
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers: []WorkerSpec{{
			Name: "stub",
			Dial: func(ctx context.Context) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go fenceStub(c2)
				return c1, nil
			},
		}},
		Fingerprint:    testFP,
		HeartbeatEvery: time.Hour, // keep pings out of the stub's frame stream
		BatchDeadline:  50 * time.Millisecond,
		Policy:         dispatch.Policy{QuarantineAfter: -1}, // the deadline strike must not quarantine the only worker
	}}
	rep, err := c.Run(context.Background(), produceN(1), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 1)
	if rep.Deadlines != 1 || rep.Requeues != 1 {
		t.Fatalf("Deadlines = %d, Requeues = %d, want 1/1: %s", rep.Deadlines, rep.Requeues, rep)
	}
	if rep.FencedResults != 1 {
		t.Fatalf("FencedResults = %d, want 1 (the stale-epoch reply): %s", rep.FencedResults, rep)
	}
}

// ackStub replies to its batch and then drops dead before any further
// traffic — the kill-after-commit-before-ack shape: the commit landed,
// so the batch must NOT be requeued when the session death is noticed.
func ackStub(conn net.Conn) {
	defer conn.Close()
	if typ, _, err := readFrame(conn); err != nil || typ != msgHello {
		return
	}
	writeFrame(conn, encodeHelloAck(HelloAck{Version: ProtoVersion, Capacity: 1, Name: "ack-stub"}))
	_, p, err := readFrame(conn)
	if err != nil {
		return
	}
	seqNo, epoch, _, db, err := parseBatchMsg(p)
	if err != nil {
		return
	}
	writeFrame(conn, encodeResultMsg(seqNo, epoch, execPayload(seqNo, db)))
	// Die immediately: the deferred Close severs the connection.
}

func TestKillAfterCommitBeforeAckDoesNotRequeue(t *testing.T) {
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers: []WorkerSpec{{
			Name: "ack-stub",
			Dial: func(ctx context.Context) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go ackStub(c2)
				return c1, nil
			},
		}},
		Fingerprint:    testFP,
		HeartbeatEvery: time.Hour,
		Policy:         dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
	}}
	rep, err := c.Run(context.Background(), produceN(1), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 1)
	if rep.Requeues != 0 {
		t.Fatalf("Requeues = %d, want 0: the batch committed before the worker died: %s", rep.Requeues, rep)
	}
}

func TestDrainWithWorkersAttached(t *testing.T) {
	drain := make(chan struct{})
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(3, 0, testExec),
		Fingerprint: testFP,
		Drain:       drain,
	}}
	produce := func(submit func(b Batch) error) error {
		if err := submit(Batch{Seq: 0, Offset: 0, DB: testBatchDB(0)}); err != nil {
			return err
		}
		close(drain)
		// Every further submission must be refused with ErrDraining.
		err := submit(Batch{Seq: 1, Offset: 100, DB: testBatchDB(1)})
		if !errors.Is(err, ErrDraining) {
			return fmt.Errorf("submit after drain: err = %v, want ErrDraining", err)
		}
		return err
	}
	rep, err := c.Run(context.Background(), produce, cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Drained {
		t.Fatalf("report not marked drained: %s", rep)
	}
	// The already-submitted batch still landed, with workers attached.
	wantExact(t, cl, 1)
}

func TestAllWorkersLostDegradesToLocal(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.RefuseConnects = 999 })
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(1, 0, testExec),
		Fingerprint: testFP,
		Policy:      dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		Inject:      inject,
		Local: func(b Batch) (bool, error) {
			return cl.fn(b, execPayload(uint64(b.Seq), b.DB))
		},
	}}
	rep, err := c.Run(context.Background(), produceN(5), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 5)
	if !rep.Degraded || rep.LocalBatches != 5 {
		t.Fatalf("Degraded = %v, LocalBatches = %d, want degraded run with all 5 local: %s",
			rep.Degraded, rep.LocalBatches, rep)
	}
	if !rep.Workers[0].Quarantined {
		t.Fatalf("unreachable worker not quarantined: %s", rep)
	}
}

func TestAllWorkersLostWithoutLocalFails(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.RefuseConnects = 999 })
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(1, 0, testExec),
		Fingerprint: testFP,
		Policy:      dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		Inject:      inject,
	}}
	_, err := c.Run(context.Background(), produceN(3), newCommitLog().fn)
	if !errors.Is(err, ErrAllWorkersLost) {
		t.Fatalf("err = %v, want ErrAllWorkersLost", err)
	}
}

func TestHandshakeRejectsMismatchedFingerprint(t *testing.T) {
	var wrongFP [32]byte
	wrongFP[0] = 0xde
	ws := &WorkerServer{Name: "skewed", Capacity: 1, Fingerprint: wrongFP, Mode: 0, Exec: testExec}
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers: []WorkerSpec{{
			Name: "skewed",
			Dial: func(ctx context.Context) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go ws.ServeConn(context.Background(), c2)
				return c1, nil
			},
		}},
		Fingerprint: testFP,
		Local: func(b Batch) (bool, error) {
			return cl.fn(b, execPayload(uint64(b.Seq), b.DB))
		},
	}}
	rep, err := c.Run(context.Background(), produceN(2), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 2)
	if !rep.Degraded {
		t.Fatalf("mismatched worker should be rejected and run degraded: %s", rep)
	}
	if !strings.Contains(rep.Workers[0].LastError, "fingerprint") {
		t.Fatalf("LastError = %q, want fingerprint rejection", rep.Workers[0].LastError)
	}
}

func TestHandshakeRejectsMismatchedMode(t *testing.T) {
	ws := &WorkerServer{Name: "fastw", Capacity: 1, Fingerprint: testFP, Mode: 1, Exec: testExec}
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers: []WorkerSpec{{
			Name: "fastw",
			Dial: func(ctx context.Context) (net.Conn, error) {
				c1, c2 := net.Pipe()
				go ws.ServeConn(context.Background(), c2)
				return c1, nil
			},
		}},
		Fingerprint: testFP,
		Mode:        0,
		Local: func(b Batch) (bool, error) {
			return cl.fn(b, execPayload(uint64(b.Seq), b.DB))
		},
	}}
	rep, err := c.Run(context.Background(), produceN(1), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 1)
	if !strings.Contains(rep.Workers[0].LastError, "mode") {
		t.Fatalf("LastError = %q, want mode rejection", rep.Workers[0].LastError)
	}
}

func TestCorruptHandshakeQuarantinesWorker(t *testing.T) {
	inject := injectWorker(1, 0, func(p *FaultPlan) { p.CorruptHello = true })
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:          pipeWorkers(1, 0, testExec),
		Fingerprint:      testFP,
		Policy:           dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
		HeartbeatTimeout: 100 * time.Millisecond, // bounds each corrupt-handshake wait
		Inject:           inject,
		Local: func(b Batch) (bool, error) {
			return cl.fn(b, execPayload(uint64(b.Seq), b.DB))
		},
	}}
	rep, err := c.Run(context.Background(), produceN(2), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantExact(t, cl, 2)
	if !rep.Workers[0].Quarantined || rep.ConnectFailures < DefaultMaxConnects {
		t.Fatalf("corrupt handshakes should exhaust connects and quarantine: %s", rep)
	}
}

// chaosRun executes one seeded chaos run and returns the injector's
// fault schedule plus the committed payloads.
func chaosRun(t *testing.T, seed int64) ([]string, map[int][]byte) {
	t.Helper()
	inject := injectWorker(seed, 0, func(p *FaultPlan) { p.KillProb = 0.4 })
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(1, 0, testExec),
		Fingerprint: testFP,
		// Chaos may kill repeatedly; keep reconnecting.
		Policy: dispatch.Policy{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond, QuarantineAfter: -1},
		Inject: inject,
	}}
	if _, err := c.Run(context.Background(), produceN(6), cl.fn); err != nil {
		t.Fatalf("chaos Run: %v", err)
	}
	wantExact(t, cl, 6)
	return inject.Schedule(), cl.snapshot()
}

func TestChaosScheduleIsSeedDeterministic(t *testing.T) {
	sched1, got1 := chaosRun(t, 77)
	sched2, got2 := chaosRun(t, 77)
	if !reflect.DeepEqual(sched1, sched2) {
		t.Fatalf("same seed, different fault schedules:\n%v\nvs\n%v", sched1, sched2)
	}
	if !reflect.DeepEqual(got1, got2) {
		t.Fatal("same seed, different committed payloads")
	}
	if len(sched1) == 0 {
		t.Fatal("chaos run injected no faults; raise KillProb")
	}
}

func TestReportRecordEmitsStableSeries(t *testing.T) {
	rep := &Report{
		Batches:  3,
		Requeues: 2,
		Workers: []WorkerStats{
			{Name: "w0", Batches: 2},
			{Name: "w1", Batches: 1, Quarantined: true},
		},
	}
	reg := obs.NewRegistry()
	rep.Record(reg)
	for name, want := range map[string]float64{
		"hmmer_cluster_requeues_total":                    2,
		"hmmer_cluster_fenced_results_total":              0,
		"hmmer_cluster_fenced_commits_total":              0,
		"hmmer_cluster_degraded":                          0,
		`hmmer_cluster_worker_quarantined{worker="w0"}`:   0,
		`hmmer_cluster_worker_quarantined{worker="w1"}`:   1,
		`hmmer_cluster_worker_batches_total{worker="w0"}`: 2,
	} {
		got, ok := reg.Get(name)
		if !ok {
			t.Fatalf("series %s not emitted", name)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCoordinatorSIGINTStyleCancel(t *testing.T) {
	// A cancelled context aborts the run even with workers attached and
	// a producer mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{Cfg: Config{
		Workers:     pipeWorkers(2, 0, testExec),
		Fingerprint: testFP,
		QueueDepth:  1,
	}}
	produce := func(submit func(b Batch) error) error {
		for i := 0; ; i++ {
			if i == 2 {
				cancel()
			}
			if err := submit(Batch{Seq: i, Offset: i * 3, DB: testBatchDB(i % 4)}); err != nil {
				return err
			}
		}
	}
	_, err := c.Run(ctx, produce, newCommitLog().fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A breaker trip on a remote execution error requeues the batch
// without spending its retry budget, the policy the device scheduler
// applies: with no retries allowed, the batch still completes on the
// other worker instead of failing the run.
func TestExecErrorTripSpendsNoBudget(t *testing.T) {
	failed := make(chan struct{})
	var once sync.Once
	flaky := func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
		once.Do(func() { close(failed) })
		return nil, errors.New("device fault")
	}
	workers := append(pipeWorkers(1, 0, flaky), pipeWorkers(1, 0, testExec)...)
	workers[1].Name = "w1"
	// w1 connects only once w0 has failed the batch, so the failure and
	// the trip provably land on w0.
	dial := workers[1].Dial
	workers[1].Dial = func(ctx context.Context) (net.Conn, error) {
		<-failed
		return dial(ctx)
	}
	cl := newCommitLog()
	c := &Coordinator{Cfg: Config{
		Workers:     workers,
		Fingerprint: testFP,
		Policy:      dispatch.Policy{MaxRetries: -1, QuarantineAfter: 1, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
	}}
	rep, err := c.Run(context.Background(), produceN(1), cl.fn)
	if err != nil {
		t.Fatalf("Run: %v (the breaker trip spent retry budget)", err)
	}
	wantExact(t, cl, 1)
	if rep.RemoteFailures != 1 || !rep.Workers[0].Quarantined || rep.Workers[1].Batches != 1 {
		t.Fatalf("want one remote failure, w0 quarantined and w1 completing the batch: %s", rep)
	}
}
