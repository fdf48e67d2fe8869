package pipeline

// Cluster-mode streaming: the two-level tier above the single-node
// schedulers. A coordinator (this process) chunks the FASTA stream
// into the same residue-balanced batches as RunMultiGPUStreamContext and
// shards them across worker processes over the cluster wire protocol
// (see internal/cluster and DESIGN §2h). Workers execute batches with
// the same deterministic engines, so the sharded hit table is
// byte-identical to the single-node run's — clean, faulted,
// crash-resumed, or taken over by a hot standby.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// ClusterConfig configures the cluster tier of a streamed search. The
// caller sets the roster, Mode (also stamped into the journal header),
// Epoch, the heartbeat and deadline knobs, Inject and Logf. The run
// owns Fingerprint, QueueDepth, Policy, Drain, Local and Trace, and
// fills them from the pipeline and the StreamConfig passed alongside,
// so a cluster run journals and resumes exactly like a single-node
// streamed run: the coordinator reuses the checkpoint journal as its
// commit log.
type ClusterConfig = cluster.Config

// ClusterStreamExtra carries a cluster run's observability.
type ClusterStreamExtra struct {
	// Cluster is the coordinator's report: per-worker shares, requeues,
	// fence counters, quarantines, degradation.
	Cluster *cluster.Report
	// Drained reports a graceful early stop (StreamConfig.Drain).
	Drained bool
	// Replayed is the number of batches merged from the checkpoint
	// journal instead of being dispatched (0 for a fresh run).
	Replayed int
	// Checkpoint carries the journal's counters when journaling was
	// enabled.
	Checkpoint *checkpoint.Stats
}

// NewWorkerServer returns a WorkerServer bound to this pipeline's
// configuration: its handshake fingerprint is the same digest the
// coordinator computes from an identically configured pipeline, so
// only matching (model, thresholds, calibration, batch budget)
// pairs ever exchange batches. exec computes one batch and returns
// its EncodeResultPayload bytes.
func (pl *Pipeline) NewWorkerServer(cfg StreamConfig, mode byte, name string, capacity int, exec cluster.Exec) *cluster.WorkerServer {
	return &cluster.WorkerServer{
		Name:        name,
		Capacity:    capacity,
		Fingerprint: pl.Fingerprint(cfg),
		Mode:        mode,
		Exec:        exec,
	}
}

// ClusterExecCPU returns a worker Exec running each batch through the
// host CPU engine. The CPU and device engines are bit-identical, so a
// cluster mixing CPU and device workers still merges one consistent
// result.
func (pl *Pipeline) ClusterExecCPU() cluster.Exec {
	return pl.clusterExec("cpu", pl.searchHost)
}

// ClusterExecGPU returns a worker Exec that runs each batch on one of
// the node's devices: filter stages on the device, Forward on the
// host, exactly like the single-node streamed engine. Concurrent
// batches (up to the server's capacity) each claim a device from the
// pool.
func (pl *Pipeline) ClusterExecGPU(sys *simt.System, mem gpu.MemConfig) cluster.Exec {
	pl.attachProfiler(mem, sys.Devices...)
	pool := make(chan *gpu.DeviceWorker, len(sys.Devices))
	for _, dev := range sys.Devices {
		pool <- gpu.NewDeviceWorker(dev, mem, pl.Opts.Workers, pl.MSV, pl.Vit)
	}
	return pl.clusterExec("gpu", func(ctx context.Context, db *seq.Database, sp *obs.Span) (*Result, error) {
		w := <-pool
		defer func() { pool <- w }()
		return pl.cascade(ctx, &deviceFilters{w: w}, nil, db, sp)
	})
}

// clusterExec wraps one engine's batch search as a worker Exec: the
// batch runs under a cluster-exec span, ships as its
// EncodeResultPayload bytes, and publishes the worker-side counters —
// batches executed, failures, and a latency histogram, the per-node
// numbers a cluster operator scrapes to find a slow or sick worker.
func (pl *Pipeline) clusterExec(engine string,
	search func(ctx context.Context, db *seq.Database, parent *obs.Span) (*Result, error)) cluster.Exec {

	return func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
		t0 := time.Now()
		sp := pl.Opts.Trace.Start("host", "cluster-exec",
			obs.String("engine", engine),
			obs.Int("batch", int64(seqNo)),
			obs.Int("seqs", int64(db.NumSeqs())),
			obs.Int("residues", db.TotalResidues()))
		res, err := search(ctx, db, sp)
		if err != nil {
			sp.Annotate(obs.String("error", err.Error()))
		}
		sp.End()
		if reg := pl.Opts.Metrics; reg.Enabled() {
			reg.AddInt(obs.WithLabel("hmmer_worker_batches_total", "engine", engine), 1)
			if err != nil {
				reg.AddInt(obs.WithLabel("hmmer_worker_batch_errors_total", "engine", engine), 1)
			}
			reg.Observe("hmmer_worker_batch_seconds", time.Since(t0).Seconds(), obs.LatencyBuckets()...)
		}
		if err != nil {
			return nil, err
		}
		return EncodeResultPayload(res), nil
	}
}

// RunClusterStreamContext searches a FASTA stream across cluster
// workers: the stream is chunked into residue-balanced batches
// (identical to RunMultiGPUStreamContext's chunking — enforced by the config
// fingerprint) and each batch runs on whichever worker slot frees up
// first. Worker loss is detected by heartbeat and repaired by
// exactly-once requeue; once every worker is lost the remaining
// batches complete on the coordinator's own CPU (graceful
// degradation, disabled by cfg.DisableFallback). With cfg.Checkpoint
// set, every committed batch lands in the crash-safe journal before
// its merge is acknowledged, and a -resume run replays the journal
// and re-shards only the remainder.
//
// The merged Result is bit-identical to the single-node run's for
// every outcome the run can survive: clean, worker-faulted, degraded,
// drained-then-resumed, crashed-then-resumed, or (with ccfg.Standby
// set) taken over by a hot standby (takeOver).
func (pl *Pipeline) RunClusterStreamContext(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig) (*Result, error) {
	if err := pl.vetClusterRun(cfg, ccfg); err != nil {
		return nil, err
	}
	if ccfg.Standby != nil {
		return pl.takeOver(ctx, r, cfg, ccfg)
	}

	// The journal opens (and replays) before any worker connects: a
	// fingerprint, mode, or corruption error must abort the run before
	// it spends hours recomputing — and before any worker accepts a
	// batch under a stale config.
	run, err := pl.openStreamRun(cfg, ccfg.Mode)
	if err != nil {
		return nil, err
	}
	return pl.runClusterCore(ctx, r, cfg, ccfg, run)
}

// takeOver is the failover half of DESIGN §2j: check the primary's
// journal header, block on the leadership lease (the primary's death
// frees it), then resume the journal exactly as -resume does and
// finish the stream at ccfg.Epoch, 2 unless set. The Result is
// byte-identical to what the primary would have produced. Takeover
// dials ccfg.Workers afresh: each worker's hello at the higher epoch
// is what fences the old primary. cfg.Checkpoint.Path names the
// primary's journal (shared filesystem); the standby keeps journaling
// to it, so a second failover layers on the same file.
func (pl *Pipeline) takeOver(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig) (*Result, error) {
	ck := cfg.Checkpoint
	if ck == nil || ck.Path == "" {
		return nil, fmt.Errorf("pipeline: standby mode requires a checkpoint journal (the primary's commit log is the handoff medium)")
	}
	if ccfg.Epoch == 0 {
		ccfg.Epoch = 2
	}
	if ccfg.Epoch < 2 {
		// Workers accept a hello at their current epoch, so a takeover
		// at the primary's epoch 1 would leave a paused primary unfenced.
		return nil, fmt.Errorf("pipeline: standby epoch %d does not fence the primary's epoch 1: a takeover runs at epoch 2 or higher", ccfg.Epoch)
	}
	poll := ccfg.Standby.Poll
	if poll <= 0 {
		poll = cluster.DefaultLeadershipPoll
	}
	acquire := ccfg.Standby.Acquire
	if acquire == nil {
		acquire = cluster.AcquireFileLeadership(ck.Path+".lock", poll)
	}
	fp := pl.Fingerprint(cfg)
	logf := ccfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The leadership race runs while we wait: the lease frees when the
	// primary exits (cleanly or not), which is the takeover signal. It
	// runs under its own context, so however this call returns, the
	// race is over and a lease it won is given back: at the end of the
	// takeover run, or at once if the standby gave up before it.
	type lease struct {
		release func()
		err     error
	}
	leaseCtx, stopLease := context.WithCancel(ctx)
	leaseCh := make(chan lease, 1)
	go func() {
		release, err := acquire(leaseCtx)
		leaseCh <- lease{release, err}
	}()
	var got lease
	received := false
	defer func() {
		stopLease()
		if !received {
			got = <-leaseCh
		}
		if got.err == nil {
			got.release()
		}
	}()

	// Until the lease is ours, check the journal header, retrying an
	// absent or still-forming file. A header-level config error is a
	// hard stop: this standby was launched against the wrong run.
	checked, waiting := false, false
	for !received {
		var retry <-chan time.Time
		if !checked {
			fo, err := checkpoint.OpenFollower(ck.Path, fp, checkpoint.FollowerOptions{Mode: ccfg.Mode})
			switch {
			case err == nil:
				fo.Close()
				checked = true
				logf("standby: journal %s belongs to this run, waiting for the lease", ck.Path)
			case hardFollowerError(err):
				return nil, err
			default:
				if !waiting {
					waiting = true
					logf("standby: no journal at %s yet, waiting for the primary to start", ck.Path)
				}
				retry = dispatch.OrWall(cfg.Policy.Clock).After(poll)
			}
		}
		select {
		case got = <-leaseCh:
			received = true
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-retry:
		}
	}
	if got.err != nil {
		return nil, got.err
	}

	// The primary is gone for good. It may have written its journal
	// and died since the last look; with no journal at all there is
	// nothing to take over, and the flag promised a takeover, not a
	// fresh primary.
	if !checkpoint.Exists(ck.Path) {
		return nil, fmt.Errorf("pipeline: standby acquired leadership but no journal exists at %s: primary never started a run", ck.Path)
	}
	// Takeover is -resume: a torn last record is the primary's crash
	// artefact, truncated exactly as a resumed run truncates it, and
	// every record read merges from disk instead of re-executing.
	resumed := *ck
	resumed.Resume = true
	cfg.Checkpoint = &resumed
	run, err := pl.openStreamRun(cfg, ccfg.Mode)
	if err != nil {
		return nil, err
	}
	logf("standby: taking over: %d batches read from the primary's journal, dialling %d workers at epoch %d",
		len(run.skip), len(ccfg.Workers), ccfg.Epoch)

	return pl.runClusterCore(ctx, r, cfg, ccfg, run)
}

// hardFollowerError reports whether a journal header failure is a
// config-level mismatch that retrying cannot fix.
func hardFollowerError(err error) bool {
	var fpe *checkpoint.FingerprintError
	var mme *checkpoint.ModeMismatchError
	var ve *checkpoint.VersionError
	return errors.As(err, &fpe) || errors.As(err, &mme) || errors.As(err, &ve)
}

// vetClusterRun is the precondition check of every cluster run.
func (pl *Pipeline) vetClusterRun(cfg StreamConfig, ccfg ClusterConfig) error {
	if cfg.BatchResidues < 1 {
		return fmt.Errorf("pipeline: stream batch residues %d < 1", cfg.BatchResidues)
	}
	if len(ccfg.Workers) == 0 {
		return fmt.Errorf("pipeline: no cluster workers configured")
	}
	if cfg.Verify != VerifyOff {
		return fmt.Errorf("pipeline: -verify applies to device execution; cluster workers verify on their own nodes")
	}
	if pl.Opts.ComputeAlignments {
		return fmt.Errorf("pipeline: cluster mode does not support alignment output: domain alignments are not encoded in result payloads")
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Fingerprint", ccfg.Fingerprint != [32]byte{}},
		{"QueueDepth", ccfg.QueueDepth != 0},
		{"Policy", ccfg.Policy != dispatch.Policy{}},
		{"Drain", ccfg.Drain != nil},
		{"Local", ccfg.Local != nil},
		{"Trace", ccfg.Trace != nil},
	} {
		if f.set {
			return fmt.Errorf("pipeline: ClusterConfig.%s is the run's to set (from the pipeline and StreamConfig)", f.name)
		}
	}
	return nil
}

func clusterBatch(b cluster.Batch) streamBatch {
	return streamBatch{seq: b.Seq, offset: b.Offset, db: b.DB, claim: b.Commit}
}

// runClusterCore is the streamed run with cluster.Coordinator as
// executor, shared by the primary and standby paths: each batch of the
// re-chunked stream ships to whichever worker slot frees up first and
// its payload commits through run.commit. It fills in the fields of the
// caller's ccfg that the run owns (see ClusterConfig).
func (pl *Pipeline) runClusterCore(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig, run *streamRun) (*Result, error) {
	defer run.closeJournal()
	tailed := len(run.skip) // a takeover read these from the primary's journal

	root := pl.startSearch("cluster-stream", nil)
	defer root.End()

	ccfg.Fingerprint = pl.Fingerprint(cfg)
	ccfg.QueueDepth = cfg.QueueDepth
	ccfg.Policy = cfg.Policy
	ccfg.Drain = cfg.Drain
	ccfg.Trace = root
	if !cfg.DisableFallback {
		// Degraded local execution: the coordinator's own CPU engine
		// computes the same result a worker would have shipped, and
		// commits through the same journal-then-merge path.
		ccfg.Local = func(b cluster.Batch) (bool, error) {
			res, err := pl.searchHost(ctx, b.DB, nil)
			if err != nil {
				return false, err
			}
			return run.commit(clusterBatch(b), res, nil, BatchLaunches{})
		}
	}
	coord := &cluster.Coordinator{Cfg: ccfg}

	rep, err := coord.Run(ctx,
		func(submit func(b cluster.Batch) error) error {
			return run.produce(pl.fastaBatches(r, cfg.BatchResidues), func(b streamBatch) error {
				return submit(cluster.Batch{Seq: b.seq, Offset: b.offset, DB: b.db})
			})
		},
		func(b cluster.Batch, payload []byte) (bool, error) {
			return run.commit(clusterBatch(b), nil, payload, BatchLaunches{})
		})
	if err != nil {
		return nil, err
	}
	final, ckpt, err := run.finish(rep.Drained)
	if err != nil {
		return nil, err
	}
	if ccfg.Standby != nil {
		rep.Failovers, rep.StandbyTailed = 1, tailed
	}
	final.Extra = &ClusterStreamExtra{Cluster: rep, Drained: rep.Drained, Replayed: run.replayed, Checkpoint: ckpt}
	final.Record(pl.Opts.Metrics)
	return final, nil
}

// InProcessWorkerSpec returns a WorkerSpec served by ws inside this
// process: each dial is one end of a net.Pipe whose other end ws
// serves, so in-process workers exercise the identical wire code as
// TCP workers. It is exported for callers that must dial the same
// WorkerServer across coordinator runs: the epoch fence lives in the
// server, so a hot-standby exercising takeover in-process has to
// promote against the instances the primary used, not fresh ones.
func InProcessWorkerSpec(ws *cluster.WorkerServer) cluster.WorkerSpec {
	return cluster.WorkerSpec{
		Name: ws.Name,
		Dial: func(ctx context.Context) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go ws.ServeConn(context.Background(), c2)
			return c1, nil
		},
	}
}

// InProcessClusterWorkers builds n in-process worker nodes named
// "local-0".."local-(n-1)", each serving exec with the given capacity
// over net.Pipe. This is the -cluster n path of cmd/hmmsearch: a
// single-process cluster that still exercises the full wire protocol,
// handshake, and fault machinery.
func (pl *Pipeline) InProcessClusterWorkers(cfg StreamConfig, mode byte, n, capacity int, exec func() cluster.Exec) []cluster.WorkerSpec {
	specs := make([]cluster.WorkerSpec, n)
	for i := range specs {
		ws := pl.NewWorkerServer(cfg, mode, fmt.Sprintf("local-%d", i), capacity, exec())
		specs[i] = InProcessWorkerSpec(ws)
	}
	return specs
}
