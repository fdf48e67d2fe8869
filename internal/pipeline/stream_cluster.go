package pipeline

// Cluster-mode streaming: the two-level tier above the single-node
// schedulers. A coordinator (this process) chunks the FASTA stream
// into the same residue-balanced batches as RunMultiGPUStreamContext and
// shards them across worker processes over the cluster wire protocol
// (see internal/cluster and DESIGN §2h). Workers execute batches with
// the same deterministic engines, so the sharded hit table is
// byte-identical to the single-node run's — clean, faulted, or
// crash-resumed.

import (
	"context"
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
// drained-then-resumed, or crashed-then-resumed.
func (pl *Pipeline) RunClusterStreamContext(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig) (*Result, error) {
	if err := pl.vetClusterRun(cfg, ccfg); err != nil {
		return nil, err
	}

	// The journal opens (and replays) before any worker connects: a
	// fingerprint, mode, or corruption error must abort the run before
	// it spends hours recomputing — and before any worker accepts a
	// batch under a stale config.
	run, err := pl.openStreamRun(cfg, ccfg.Mode)
	if err != nil {
		return nil, err
	}
	return pl.runClusterCore(ctx, r, cfg, ccfg, run, haState{})
}

// vetClusterRun is the shared precondition check for the primary and
// standby cluster paths.
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

// haState carries what a hot-standby takeover knows that a plain run
// does not; the zero value is a plain run.
type haState struct {
	// failovers and standbyTailed flow into the coordinator report.
	failovers     int
	standbyTailed int
}

func clusterBatch(b cluster.Batch) streamBatch {
	return streamBatch{seq: b.Seq, offset: b.Offset, db: b.DB, claim: b.Commit}
}

// runClusterCore is the streamed run with cluster.Coordinator as
// executor, shared by the primary and standby paths: each batch of the
// re-chunked stream ships to whichever worker slot frees up first and
// its payload commits through run.commit. It fills in the fields of the
// caller's ccfg that the run owns (see ClusterConfig).
func (pl *Pipeline) runClusterCore(ctx context.Context, r io.Reader, cfg StreamConfig, ccfg ClusterConfig, run *streamRun, ha haState) (*Result, error) {
	defer run.closeJournal()

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
	rep.Failovers = ha.failovers
	rep.StandbyTailed = ha.standbyTailed
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
