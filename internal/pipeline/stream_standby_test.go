package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/dispatch"
)

// chanLeadership grants the lease when the returned trigger is called
// — the deterministic stand-in for the flock freeing on primary death.
func chanLeadership() (cluster.AcquireLeadership, func()) {
	ch := make(chan struct{})
	acquire := func(ctx context.Context) (func(), error) {
		select {
		case <-ch:
			return func() {}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return acquire, func() { close(ch) }
}

// TestStandbyTakeoverMatchesSingleNode is the in-process end-to-end
// failover: the primary coordinator is killed mid-run by injection,
// the hot standby resumes the journal, dials the same three workers at
// epoch 2 and finishes the stream. The merged result must be bit-identical to the single-node
// run, with no batch merged twice.
func TestStandbyTakeoverMatchesSingleNode(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path}}

	// Persistent worker servers: the epoch fence lives in the server,
	// so primary and standby must reach the same instances.
	servers := make([]*cluster.WorkerServer, 3)
	specs := make([]cluster.WorkerSpec, 3)
	for i := range servers {
		servers[i] = pl.NewWorkerServer(cfg, 0, fmt.Sprintf("w%d", i), 1, pl.ClusterExecCPU())
		specs[i] = InProcessWorkerSpec(servers[i])
	}

	// The standby starts first (as deployed: it must be waiting before
	// the primary can die) and parks on the leadership lease.
	acquire, grantLease := chanLeadership()
	type outcome struct {
		res *Result
		err error
	}
	standbyDone := make(chan outcome, 1)
	go func() {
		res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta),
			cfg, ClusterConfig{Workers: specs,
				Standby: &cluster.Lease{Acquire: acquire, Poll: 5 * time.Millisecond}})
		standbyDone <- outcome{res, err}
	}()

	// The primary dies after its third batch assignment.
	inject := clusterFaults(t, "coord:kill=3", 1, len(specs))
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
		ClusterConfig{Workers: specs, Inject: inject})
	if !errors.Is(err, cluster.ErrInjectedCoordinatorKill) {
		t.Fatalf("primary returned %v, want ErrInjectedCoordinatorKill", err)
	}

	// The dead primary's flock frees; the standby takes over.
	grantLease()
	var got outcome
	select {
	case got = <-standbyDone:
	case <-time.After(30 * time.Second):
		t.Fatal("standby never finished the takeover run")
	}
	if got.err != nil {
		t.Fatalf("standby run failed: %v", got.err)
	}
	sameHits(t, "standby takeover", whole, got.res)

	extra := got.res.Extra.(*ClusterStreamExtra)
	if extra.Cluster.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", extra.Cluster.Failovers)
	}
	if extra.Cluster.Epoch != 2 {
		t.Errorf("takeover epoch = %d, want 2", extra.Cluster.Epoch)
	}
	if extra.Cluster.StandbyTailed != extra.Replayed {
		t.Errorf("StandbyTailed = %d but Replayed = %d: the takeover merged batches it never tailed",
			extra.Cluster.StandbyTailed, extra.Replayed)
	}
	for _, ws := range servers {
		if gotE := ws.MaxEpoch(); gotE != 2 {
			t.Errorf("worker %s MaxEpoch = %d, want 2", ws.Name, gotE)
		}
	}

	// Journal replay audit: the journal both coordinators wrote must
	// hold exactly one record per batch (Resume's duplicate check plus
	// the replay covering the whole stream) and replay to the same
	// bytes with zero recomputation.
	res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta),
		StreamConfig{BatchResidues: batchResidues,
			Checkpoint: &CheckpointConfig{Path: path, Resume: true}},
		ClusterConfig{Workers: specs})
	if err != nil {
		t.Fatalf("post-failover journal replay: %v", err)
	}
	sameHits(t, "post-failover replay", whole, res)
	replay := res.Extra.(*ClusterStreamExtra)
	if replay.Cluster.Batches != 0 {
		t.Errorf("replay dispatched %d batches, want 0 (journal must cover the whole stream)", replay.Cluster.Batches)
	}
}

// TestStandbyLeaseBeforeJournalSeen pins the schedule a loaded host
// produces: the standby looks for the journal before the primary has
// created it, and the primary then writes its journal and dies before
// the standby looks again. The lease is what wakes the standby, and it
// must look once more before concluding there is nothing to take over.
// The poll interval is an hour, so nothing but the lease can wake it.
func TestStandbyLeaseBeforeJournalSeen(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}}
	server := pl.NewWorkerServer(cfg, 0, "w0", 1, pl.ClusterExecCPU())
	specs := []cluster.WorkerSpec{InProcessWorkerSpec(server)}

	acquire, grantLease := chanLeadership()
	parked := make(chan struct{})
	var parkOnce sync.Once
	type outcome struct {
		res *Result
		err error
	}
	standbyDone := make(chan outcome, 1)
	go func() {
		res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
			ClusterConfig{Workers: specs, Logf: func(format string, _ ...any) {
				if strings.Contains(format, "no journal") {
					parkOnce.Do(func() { close(parked) })
				}
			},
				Standby: &cluster.Lease{Acquire: acquire, Poll: time.Hour}})
		standbyDone <- outcome{res, err}
	}()

	select {
	case <-parked:
	case got := <-standbyDone:
		t.Fatalf("standby returned before the primary started: %v", got.err)
	}
	inject := clusterFaults(t, "coord:kill=3", 1, len(specs))
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg, ClusterConfig{Workers: specs, Inject: inject})
	if !errors.Is(err, cluster.ErrInjectedCoordinatorKill) {
		t.Fatalf("primary returned %v, want ErrInjectedCoordinatorKill", err)
	}
	grantLease()

	got := <-standbyDone
	if got.err != nil {
		t.Fatalf("standby refused a journal that exists: %v", got.err)
	}
	sameHits(t, "takeover of a journal first seen after the lease", whole, got.res)
	extra := got.res.Extra.(*ClusterStreamExtra)
	if extra.Cluster.Failovers != 1 || extra.Cluster.StandbyTailed == 0 || extra.Cluster.StandbyTailed != extra.Replayed {
		t.Errorf("Failovers = %d, StandbyTailed = %d, Replayed = %d: want one failover that merged the primary's batches from the journal",
			extra.Cluster.Failovers, extra.Cluster.StandbyTailed, extra.Replayed)
	}
}

// A standby that wins leadership before any journal exists refuses to
// run: its flag promised a takeover, not a fresh primary.
func TestStandbyRefusesWithoutJournal(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "never-created.ckpt")
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path}}
	acquire, grant := chanLeadership()
	grant()
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
		ClusterConfig{Workers: cpuWorkers(pl, cfg, 1),
			Standby: &cluster.Lease{Acquire: acquire, Poll: time.Millisecond}})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("no journal")) {
		t.Fatalf("err = %v, want a no-journal refusal", err)
	}
}

// A standby that gives up before the takeover — here, on a journal
// another run wrote — ends its lease race before it returns: the
// acquire's context is cancelled, and a lease already won is released.
func TestStandbyGivesUpItsLease(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "other-run.ckpt")
	j, err := checkpoint.Create(path, checkpoint.Fingerprint{1}, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	cfg := StreamConfig{BatchResidues: batchResidues, Checkpoint: &CheckpointConfig{Path: path}}
	for _, granted := range []bool{false, true} {
		var leaseCtx context.Context
		released := false
		acquire := func(ctx context.Context) (func(), error) {
			leaseCtx = ctx
			if granted {
				return func() { released = true }, nil
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
			ClusterConfig{Workers: cpuWorkers(pl, cfg, 1),
				Standby: &cluster.Lease{Acquire: acquire, Poll: time.Millisecond}})
		var fpe *checkpoint.FingerprintError
		if !errors.As(err, &fpe) {
			t.Fatalf("granted=%v: err = %v, want *checkpoint.FingerprintError", granted, err)
		}
		if leaseCtx.Err() == nil {
			t.Errorf("granted=%v: the lease race outlived the standby", granted)
		}
		if granted && !released {
			t.Error("the standby returned holding a lease it won")
		}
	}
}

// instantClock fires every wait at once: under it, only the clock can
// end a wait of an hour.
type instantClock struct{}

func (instantClock) Now() time.Time { return time.Unix(0, 0) }

func (instantClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

// TestStandbyRunsOnTheRunsClock: the standby's look for an absent
// journal waits on the run's Policy.Clock. The poll is an hour and the
// clock fires at once, so the standby finds the journal that appears
// after its first look before any wall-clock hour ends.
func TestStandbyRunsOnTheRunsClock(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path},
		Policy:     dispatch.Policy{Clock: instantClock{}}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acquire, _ := chanLeadership()
	looked, found := make(chan struct{}), make(chan struct{})
	logf := func(format string, _ ...any) {
		switch {
		case strings.Contains(format, "no journal"):
			close(looked)
		case strings.Contains(format, "belongs to this run"):
			close(found)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := pl.RunClusterStreamContext(ctx, bytes.NewReader(fasta), cfg,
			ClusterConfig{Workers: cpuWorkers(pl, cfg, 1), Logf: logf,
				Standby: &cluster.Lease{Acquire: acquire, Poll: time.Hour}})
		done <- err
	}()
	select {
	case <-looked:
	case err := <-done:
		t.Fatalf("standby returned before it looked for the journal: %v", err)
	}
	j, err := checkpoint.Create(path, pl.Fingerprint(cfg), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	select {
	case <-found:
	case err := <-done:
		t.Fatalf("standby returned before it found the journal: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the standby never looked again: its journal poll is not on the run's clock")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("standby returned %v after cancellation, want context.Canceled", err)
	}
}

// A takeover below epoch 2 is refused before the lease race: workers
// accept a hello at the epoch they last acked, so a standby at the
// primary's epoch 1 would leave a paused but live primary unfenced.
func TestStandbyRefusesEpochBelowTwo(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}}
	var raced atomic.Bool
	acquire := func(context.Context) (func(), error) {
		raced.Store(true)
		return func() {}, nil
	}
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
		ClusterConfig{Workers: cpuWorkers(pl, cfg, 1), Epoch: 1, Standby: &cluster.Lease{Acquire: acquire}})
	if err == nil || !strings.Contains(err.Error(), "standby epoch 1") {
		t.Fatalf("err = %v, want a refusal of takeover epoch 1", err)
	}
	if raced.Load() {
		t.Error("the standby raced for the lease at an epoch it refuses")
	}
}

// A standby requires the checkpoint journal: it is the handoff medium.
func TestStandbyRequiresCheckpoint(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	cfg := StreamConfig{BatchResidues: batchResidues}
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg,
		ClusterConfig{Workers: cpuWorkers(pl, cfg, 1), Standby: &cluster.Lease{}})
	if err == nil {
		t.Fatal("standby ran without a checkpoint journal")
	}
}

// The takeover settles a torn journal tail exactly as a crash-resume
// would: the primary dies mid-append (checkpoint crash injection), the
// standby truncates the torn half-record and recomputes that batch.
func TestStandbyTakeoverSettlesTornTail(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := StreamConfig{BatchResidues: batchResidues,
		Checkpoint: &CheckpointConfig{Path: path}}
	specs := cpuWorkers(pl, cfg, 2)

	acquire, grantLease := chanLeadership()
	type outcome struct {
		res *Result
		err error
	}
	standbyDone := make(chan outcome, 1)
	go func() {
		res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta),
			cfg, ClusterConfig{Workers: specs,
				Standby: &cluster.Lease{Acquire: acquire, Poll: 5 * time.Millisecond}})
		standbyDone <- outcome{res, err}
	}()

	// The primary crashes inside its second journal append, leaving a
	// torn half-record on disk.
	crashCfg := cfg
	crashCfg.Checkpoint = &CheckpointConfig{Path: path,
		Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterAppend)}
	_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), crashCfg,
		ClusterConfig{Workers: specs})
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("primary returned %v, want ErrInjectedCrash", err)
	}

	grantLease()
	var got outcome
	select {
	case got = <-standbyDone:
	case <-time.After(30 * time.Second):
		t.Fatal("standby never finished the takeover run")
	}
	if got.err != nil {
		t.Fatalf("standby run failed: %v", got.err)
	}
	sameHits(t, "torn-tail takeover", whole, got.res)
	extra := got.res.Extra.(*ClusterStreamExtra)
	if extra.Checkpoint == nil || extra.Checkpoint.DroppedTail != 1 {
		t.Errorf("checkpoint stats = %+v, want DroppedTail 1 (the torn half-record)", extra.Checkpoint)
	}
}
