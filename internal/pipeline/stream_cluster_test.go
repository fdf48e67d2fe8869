package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// clusterFaults parses a fault spec of w<N> and coord clauses for a
// cluster of the given number of workers.
func clusterFaults(t *testing.T, spec string, seed int64, workers int) *cluster.FaultInjector {
	t.Helper()
	plan, err := faults.Parse(spec, seed, 0, workers)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Cluster
}

// cpuWorkers builds n in-process CPU-engine workers for pl.
func cpuWorkers(pl *Pipeline, cfg StreamConfig, n int) []cluster.WorkerSpec {
	return pl.InProcessClusterWorkers(cfg, 0, n, 1, func() cluster.Exec { return pl.ClusterExecCPU() })
}

// clusterRun executes one cluster-mode streamed run over the fixture
// stream with n in-process CPU workers.
func clusterRun(t *testing.T, pl *Pipeline, fasta []byte, batchResidues int64, n int,
	mutate func(cfg *StreamConfig, ccfg *ClusterConfig)) (*Result, error) {
	t.Helper()
	cfg := StreamConfig{BatchResidues: batchResidues}
	ccfg := ClusterConfig{}
	if mutate != nil {
		mutate(&cfg, &ccfg)
	}
	if ccfg.Workers == nil {
		ccfg.Workers = cpuWorkers(pl, cfg, n)
	}
	return pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg, ccfg)
}

// TestClusterStreamMatchesSingleNode: a clean sharded run across three
// workers must be bit-identical to the whole-database single-node run.
func TestClusterStreamMatchesSingleNode(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	res, err := clusterRun(t, pl, fasta, batchResidues, 3, nil)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	sameHits(t, "clean cluster", whole, res)
	extra := res.Extra.(*ClusterStreamExtra)
	if extra.Cluster.Faulted() {
		t.Errorf("clean run reports faults: %s", extra.Cluster)
	}
	if got := extra.Cluster.Batches; got < 2 {
		t.Errorf("only %d batches sharded; fixture too small to exercise sharding", got)
	}
}

// TestClusterStreamMixedEnginesMatch: a cluster mixing device-backed
// and CPU workers must still merge one consistent, bit-identical
// result — the engines are bit-identical by design.
func TestClusterStreamMixedEnginesMatch(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	cfg := StreamConfig{BatchResidues: batchResidues}
	sys := simt.NewSystem(simt.GTX580(), 2)
	mode := byte(sys.Devices[0].Mode)
	gpuWorker := pl.NewWorkerServer(cfg, mode, "gpu-node", 2, pl.ClusterExecGPU(sys, gpu.MemAuto))
	ccfg := ClusterConfig{
		Mode: mode,
		Workers: append(
			pl.InProcessClusterWorkers(cfg, mode, 1, 1, func() cluster.Exec { return pl.ClusterExecCPU() }),
			InProcessWorkerSpec(gpuWorker)),
	}
	res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg, ccfg)
	if err != nil {
		t.Fatalf("mixed cluster run failed: %v", err)
	}
	sameHits(t, "mixed engines", whole, res)
}

// TestClusterStreamFaultedMatchesClean kills one worker mid-stream and
// tears another's frame; the reclaimed batches re-execute exactly once
// elsewhere and the result stays bit-identical.
func TestClusterStreamFaultedMatchesClean(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	reg := obs.NewRegistry()
	pl.Opts.Metrics = reg
	defer func() { pl.Opts.Metrics = nil }()

	inject := clusterFaults(t, "w0:kill=1,dead=1;w1:torn=0,dead=1", 7, 3)
	// Worker 0's kill fires on its second assignment and worker 1's torn
	// frame on its first. Left alone, a fast third worker can drain the
	// fixture's six batches before worker 0 is handed a second one, so it
	// holds whatever it is given until the injector has logged both faults.
	// They cannot fail to fire: with the third worker held, worker 1
	// loses its first batch and worker 0 is next in line for the rest.
	bothFired := func() bool {
		sched := strings.Join(inject.Schedule(), "\n")
		return strings.Contains(sched, "w0 kill batch #1") && strings.Contains(sched, "w1 torn-frame batch #0")
	}
	workers := 0
	mkExec := func() cluster.Exec {
		exec := pl.ClusterExecCPU()
		if workers++; workers < 3 {
			return exec
		}
		return func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
			for !bothFired() && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			return exec(ctx, seqNo, db)
		}
	}
	res, err := clusterRun(t, pl, fasta, batchResidues, 3,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Inject = inject
			ccfg.Workers = pl.InProcessClusterWorkers(*cfg, 0, 3, 1, mkExec)
		})
	if err != nil {
		t.Fatalf("faulted cluster run failed: %v", err)
	}
	sameHits(t, "faulted cluster", whole, res)
	if !bothFired() {
		t.Errorf("an injected fault did not fire: %q", inject.Schedule())
	}

	rep := res.Extra.(*ClusterStreamExtra).Cluster
	if rep.Requeues < 2 {
		t.Errorf("requeues = %d, want >= 2 (one per injected loss): %s", rep.Requeues, rep)
	}
	if rep.FencedCommits != 0 {
		t.Errorf("fenced commits = %d: a lost batch was double-executed", rep.FencedCommits)
	}
	if v, ok := reg.Get("hmmer_cluster_requeues_total"); !ok || v != float64(rep.Requeues) {
		t.Errorf("hmmer_cluster_requeues_total = %v (present %v), want %d", v, ok, rep.Requeues)
	}
}

// TestClusterStreamCrashResumeMatchesClean crashes the coordinator via
// journal injection after two committed batches and resumes with a
// fresh cluster: replay plus re-sharded remainder must match the
// single-node run bit for bit.
func TestClusterStreamCrashResumeMatchesClean(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := clusterRun(t, pl, fasta, batchResidues, 3,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			cfg.Checkpoint = &CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(2, checkpoint.WindowAfterSync)}
		})
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	res, err := clusterRun(t, pl, fasta, batchResidues, 3,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
		})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "cluster crash-resume", whole, res)
	extra := res.Extra.(*ClusterStreamExtra)
	if extra.Replayed < 2 {
		t.Errorf("replayed %d batches, want >= 2 (both were durable before the crash)", extra.Replayed)
	}
	if extra.Checkpoint == nil {
		t.Error("no checkpoint stats on a journaled run")
	}
}

// TestClusterStreamCrashResumeUnderFaults combines coordinator crash
// recovery with worker chaos on both sides of the crash.
func TestClusterStreamCrashResumeUnderFaults(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	chaos := func() *cluster.FaultInjector {
		inject := clusterFaults(t, "w0:kill=1,dead=1", 11, 3)
		return inject
	}
	_, err := clusterRun(t, pl, fasta, batchResidues, 3,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Inject = chaos()
			cfg.Checkpoint = &CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterSync)}
		})
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	res, err := clusterRun(t, pl, fasta, batchResidues, 3,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Inject = chaos()
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
		})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "faulted cluster crash-resume", whole, res)
}

// TestClusterStreamDegradesToLocal: with every worker unreachable the
// coordinator finishes the whole stream on its own CPU, bit-identical.
func TestClusterStreamDegradesToLocal(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	inject := clusterFaults(t, "w0:refuse=999;w1:refuse=999", 3, 2)
	res, err := clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) { ccfg.Inject = inject })
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	sameHits(t, "degraded cluster", whole, res)
	rep := res.Extra.(*ClusterStreamExtra).Cluster
	if !rep.Degraded {
		t.Fatal("run not marked degraded")
	}
	if rep.LocalBatches != rep.Batches {
		t.Errorf("local batches %d != submitted %d: remote workers were supposed to be unreachable", rep.LocalBatches, rep.Batches)
	}
}

// TestClusterStreamAllWorkersLostFails: same loss without a local
// executor must surface cluster.ErrAllWorkersLost, not hang or
// silently truncate.
func TestClusterStreamAllWorkersLostFails(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	inject := clusterFaults(t, "w0:refuse=999;w1:refuse=999", 3, 2)
	_, err := clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Inject = inject
			cfg.DisableFallback = true
		})
	if !errors.Is(err, cluster.ErrAllWorkersLost) {
		t.Fatalf("err = %v, want ErrAllWorkersLost", err)
	}
}

// TestClusterStreamDrainThenResume drains a journaled cluster run
// before it starts, then resumes it to completion.
func TestClusterStreamDrainThenResume(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	drain := make(chan struct{})
	close(drain)
	res, err := clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			cfg.Drain = drain
			cfg.Checkpoint = &CheckpointConfig{Path: path}
		})
	if err != nil {
		t.Fatalf("drained run surfaced an error: %v", err)
	}
	if !res.Extra.(*ClusterStreamExtra).Drained {
		t.Fatal("run not marked drained")
	}

	res, err = clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
		})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	sameHits(t, "cluster drain-then-resume", whole, res)
}

// TestClusterStreamResumeRefusesModeMismatch: a journal written under
// one simulator mode must refuse to resume under another with a typed
// error, before any worker computes anything.
func TestClusterStreamResumeRefusesModeMismatch(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	_, err := clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Mode = 0
			cfg.Checkpoint = &CheckpointConfig{Path: path, Crash: checkpoint.CrashAfter(1, checkpoint.WindowAfterSync)}
		})
	if !errors.Is(err, checkpoint.ErrInjectedCrash) {
		t.Fatalf("crashed run returned %v, want ErrInjectedCrash", err)
	}

	_, err = clusterRun(t, pl, fasta, batchResidues, 2,
		func(cfg *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Mode = 1
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
		})
	var mm *checkpoint.ModeMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("cross-mode resume returned %v, want ModeMismatchError", err)
	}
}

// TestClusterStreamRejectsUnsupportedOptions: alignment output cannot
// cross the wire, -verify belongs to device execution, and the
// ClusterConfig fields the run fills in are not the caller's; each
// must refuse upfront.
func TestClusterStreamRejectsUnsupportedOptions(t *testing.T) {
	pl, fasta, _, batchResidues := faultStreamFixture(t)

	pl.Opts.ComputeAlignments = true
	_, err := clusterRun(t, pl, fasta, batchResidues, 2, nil)
	pl.Opts.ComputeAlignments = false
	if err == nil {
		t.Error("cluster run with ComputeAlignments accepted")
	}

	for _, tc := range []struct {
		name   string
		mutate func(cfg *StreamConfig, ccfg *ClusterConfig)
	}{
		{"Verify", func(cfg *StreamConfig, _ *ClusterConfig) { cfg.Verify = VerifyGuards }},
		{"Fingerprint", func(_ *StreamConfig, ccfg *ClusterConfig) { ccfg.Fingerprint[0] = 1 }},
		{"QueueDepth", func(_ *StreamConfig, ccfg *ClusterConfig) { ccfg.QueueDepth = 4 }},
		{"Policy", func(_ *StreamConfig, ccfg *ClusterConfig) { ccfg.Policy.MaxRetries = 1 }},
		{"Drain", func(_ *StreamConfig, ccfg *ClusterConfig) { ccfg.Drain = make(chan struct{}) }},
		{"Local", func(_ *StreamConfig, ccfg *ClusterConfig) {
			ccfg.Local = func(cluster.Batch) (bool, error) { return false, nil }
		}},
		{"Trace", func(_ *StreamConfig, ccfg *ClusterConfig) { ccfg.Trace = obs.New().Start("host", "caller") }},
	} {
		_, err := clusterRun(t, pl, fasta, batchResidues, 2, tc.mutate)
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.name)) {
			t.Errorf("cluster run with %s set: err = %v, want a refusal naming it", tc.name, err)
		}
	}
}

// TestClusterStreamHandshakeMismatchDegrades: a worker whose pipeline
// was built with different thresholds computes a different fingerprint;
// the coordinator must reject it at connect and finish the run without
// it rather than merge inconsistent results.
func TestClusterStreamHandshakeMismatchDegrades(t *testing.T) {
	pl, fasta, whole, batchResidues := faultStreamFixture(t)
	cfg := StreamConfig{BatchResidues: batchResidues}

	// A worker fingerprinted under a different batch budget: same
	// model, incompatible chunking.
	wrong := pl.NewWorkerServer(StreamConfig{BatchResidues: batchResidues * 2}, 0, "skewed", 1, pl.ClusterExecCPU())
	// Left alone, the healthy worker can drain every batch before the
	// skewed handshake is rejected, and the skewed worker then ends
	// neither quarantined nor used. So the healthy worker holds each
	// batch until the coordinator has quarantined the skewed one.
	rejected := make(chan struct{})
	var once sync.Once
	held := func() cluster.Exec {
		exec := pl.ClusterExecCPU()
		return func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
			select {
			case <-rejected:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return exec(ctx, seqNo, db)
		}
	}
	ccfg := ClusterConfig{
		Workers: append(pl.InProcessClusterWorkers(cfg, 0, 1, 1, held), InProcessWorkerSpec(wrong)),
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "worker skewed quarantined") {
				once.Do(func() { close(rejected) })
			}
		},
	}
	res, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(fasta), cfg, ccfg)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	sameHits(t, "skewed worker rejected", whole, res)
	rep := res.Extra.(*ClusterStreamExtra).Cluster
	skewed := rep.Workers[1]
	if !skewed.Quarantined || skewed.Batches != 0 {
		t.Errorf("skewed worker: quarantined=%v batches=%d, want quarantined with 0 batches", skewed.Quarantined, skewed.Batches)
	}
}
