package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

const streamWorkers = 2

// streamState is a cluster ready to search: the calibrated pipeline
// and two in-process workers, one fast-mode GTX 580 each, reached over
// the real wire protocol on net.Pipe.
type streamState struct {
	pl   *pipeline.Pipeline
	name string
	cfg  pipeline.StreamConfig
	ccfg pipeline.ClusterConfig
}

// streamSetup parses the model, calibrates, and builds the workers.
// wrap, when non-nil, is put around each worker's Exec (the traced
// pass's span boundary).
func streamSetup(abc *alphabet.Alphabet, hmmText []byte, batchRes int64, wrap func(worker int, inner cluster.Exec) cluster.Exec) (*streamState, error) {
	h, err := hmm.Read(bytes.NewReader(hmmText), abc)
	if err != nil {
		return nil, fmt.Errorf("read model: %w", err)
	}
	pl, err := pipeline.New(h, envnrMeanLen, pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	st := &streamState{pl: pl, name: h.Name, cfg: pipeline.StreamConfig{BatchResidues: batchRes}}
	mode := byte(simt.ModeFast)
	worker := 0
	st.ccfg = pipeline.ClusterConfig{
		Mode: mode,
		Workers: pl.InProcessClusterWorkers(st.cfg, mode, streamWorkers, 1, func() cluster.Exec {
			exec := pl.ClusterExecGPU(simt.NewSystem(simt.GTX580(), 1).SetMode(simt.ModeFast), gpu.MemAuto)
			if wrap != nil {
				exec = wrap(worker, exec)
			}
			worker++
			return exec
		}),
	}
	return st, nil
}

// spanReader puts a span around every Read the streaming parser makes.
type spanReader struct {
	r          io.Reader
	rec        *recorder
	op, parent int
}

func (sr *spanReader) Read(p []byte) (int, error) {
	s := sr.rec.start(sr.op, sr.parent, "seq.reader", "io.Reader.Read")
	defer sr.rec.end(s)
	return sr.r.Read(p)
}

// streamRun is one op's outcome.
type streamRun struct {
	wall    time.Duration
	res     *pipeline.Result
	out     []byte
	batches int
}

// op streams the FASTA bytes through the cluster with the journal on,
// fsynced every batch, and writes the table. The journal file is
// removed afterwards, off the clock.
func (st *streamState) op(fasta []byte, journal string, rec *recorder, opID, root int) (*streamRun, error) {
	defer os.Remove(journal)
	cfg := st.cfg
	cfg.Checkpoint = &pipeline.CheckpointConfig{Path: journal, SyncEvery: 1}

	var r io.Reader = bytes.NewReader(fasta)
	if rec != nil {
		r = &spanReader{r: r, rec: rec, op: opID, parent: root}
	}
	t0 := time.Now()
	res, err := st.pl.RunClusterStreamContext(context.Background(), r, cfg, st.ccfg)
	if err != nil {
		return nil, err
	}
	out, err := digest(st.name, res)
	if err != nil {
		return nil, err
	}
	run := &streamRun{wall: time.Since(t0), res: res, out: out}
	rep := res.Extra.(*pipeline.ClusterStreamExtra).Cluster
	if rep.Faulted() {
		return nil, fmt.Errorf("stream_cluster: the run was not clean: %s", rep)
	}
	run.batches = rep.Batches
	return run, nil
}

// modelledProbe runs the MSV kernel cycle-accurately on one device of
// the given kind over n sequences of the database (taken in order,
// going round again if it has fewer) and returns cells per modelled
// second. The fast-mode workloads compute no modelled time of their
// own; this is the simulated figure for the device and model size they
// use, taken off the clock. It covers MSV only, and n is several times
// the device's resident warps: a Viterbi launch over a handful of
// survivors, or a single wave, models the time of its longest sequence
// and would change by a tenth from one seed to the next.
func modelledProbe(pl *pipeline.Pipeline, spec simt.DeviceSpec, db *seq.Database, n int) (float64, error) {
	sample := seq.NewDatabase(db.Name + "-probe")
	for i := 0; i < n; i++ {
		sample.Add(db.Seqs[i%db.NumSeqs()])
	}
	dev := simt.NewDevice(spec)
	searcher := &gpu.Searcher{Dev: dev, Mem: gpu.MemAuto}
	rep, err := searcher.MSVSearch(gpu.UploadMSVProfile(dev, pl.MSV), gpu.UploadDB(dev, sample))
	if err != nil {
		return 0, fmt.Errorf("modelled probe: %w", err)
	}
	cells := sample.TotalResidues() * int64(pl.Prof.M)
	return float64(cells) / perf.GPUTime(spec, rep.Launch) / 1e9, nil
}

func runStream(cfg runConfig, traced bool) (*workloadResult, error) {
	abc := alphabet.New()
	q, err := newQuery("stream-query", cfg.sz.streamM, abc, subSeed(cfg.seed, seedStream, 0))
	if err != nil {
		return nil, err
	}
	tg, err := newTarget(envnrSeqs(cfg.sz.streamSeqs, subSeed(cfg.seed, seedStream, 1)), q.h, abc)
	if err != nil {
		return nil, err
	}

	out := newResult()
	m := out.metrics
	rec := (*recorder)(nil)
	// The workers outlive an op, so their Exec wrappers learn the
	// current op and its root span from here.
	var curOp, curRoot atomic.Int64
	var wrap func(int, cluster.Exec) cluster.Exec
	if traced {
		rec = newRecorder()
		wrap = func(worker int, inner cluster.Exec) cluster.Exec {
			layer := fmt.Sprintf("cluster.exec.w%d", worker)
			return func(ctx context.Context, seqNo uint64, db *seq.Database) ([]byte, error) {
				// An untraced op runs with op 0: its spans are recorded
				// and ignored, the price of one set of workers.
				s := rec.start(int(curOp.Load()), int(curRoot.Load()), layer, "cluster.Exec")
				defer rec.end(s)
				return inner(ctx, seqNo, db)
			}
		}
	}

	var st *streamState
	for i := 0; i < setupReps(traced, 3); i++ {
		settle()
		t0 := time.Now()
		st, err = streamSetup(abc, q.text, cfg.sz.streamBatchRes, wrap)
		if err != nil {
			return nil, fmt.Errorf("stream_cluster set-up: %w", err)
		}
		if !traced {
			m.add("setup_s", "s", time.Since(t0).Seconds())
		}
	}

	ref, err := st.pl.RunCPUStream(bytes.NewReader(tg.fasta), 2000)
	if err != nil {
		return nil, fmt.Errorf("stream_cluster reference: %w", err)
	}
	want, err := digest(st.name, ref)
	if err != nil {
		return nil, err
	}
	cells := float64(totalCells(ref))

	opNo := 0
	op := func(rec *recorder, opID int) (*streamRun, error) {
		opNo++
		root := rec.start(opID, noSpan, layerOther, "stream_cluster op")
		defer rec.end(root)
		curOp.Store(int64(opID))
		curRoot.Store(int64(root))
		r, err := st.op(tg.fasta, filepath.Join(cfg.scratch, fmt.Sprintf("stream-%d.journal", opNo)), rec, opID, root)
		if err == nil {
			err = sameOutput("stream_cluster", r.out, want)
		}
		return r, err
	}
	if _, err := op(nil, 0); err != nil { // warm-up
		return nil, fmt.Errorf("stream_cluster warm-up: %w", err)
	}

	if !traced {
		gcups, err := modelledProbe(st.pl, simt.GTX580(), tg.db, cfg.sz.probeSeqs)
		if err != nil {
			return nil, err
		}
		timedLoop(cfg.window, 3, func() {
			r, err := op(nil, 0)
			out.check(err)
			if err != nil {
				return
			}
			w := r.wall.Seconds()
			m.add("search_wall_s", "s", w)
			m.add("cells_per_s", "1/s", cells/w)
			m.add("batches_per_s", "1/s", float64(r.batches)/w)
			m.add("qps", "1/s", 1/w) // one streamed search is one query
		})
		if s, ok := m["search_wall_s"]; ok {
			m.add("query_p50_s", "s", median(s.Vals))
			m.add("query_p90_s", "s", percentile(s.Vals, 0.9))
			m.add("modelled_gcups", "Gcell/s", gcups)
			m.add("time_to_result_s", "s", median(m["setup_s"].Vals)+median(s.Vals))
		}
		return out, nil
	}

	tw, ok := tracedPass(m, cfg.tracedOps,
		func(opID int) (float64, bool) {
			r, err := op(rec, opID)
			out.check(err)
			if err != nil {
				return 0, false
			}
			return r.wall.Seconds(), true
		},
		func() (float64, int, bool) {
			u, err := op(nil, 0)
			out.check(err)
			if err != nil {
				return 0, 0, false
			}
			stageRows(m, u.res, u.wall, streamWorkers)
			return u.wall.Seconds(), 1, true
		})
	if !ok {
		return out, nil
	}
	if err := outputRows(m, st.name, ref); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	out.trace = traceRows(m, "stream_cluster", spans, streamBudget(spans, tw.ops), tw,
		"workers run concurrently: rows are busy time (union of spans), not self time; coordinator_share is wall minus the slowest worker's busy time and holds the coordinator, the wire, the journal and the streaming parse")
	return out, nil
}

// streamBudget is the concurrent workload's budget: how long each
// worker's Exec and the input reader were busy, and the wall left over
// once the slowest worker is taken out — the coordinator's share.
func streamBudget(spans []span, ops []int) opBudget {
	rows := make(map[string][]float64)
	var walls, shares []float64
	for _, op := range ops {
		wall := rootWall(spans, op).Seconds()
		if wall <= 0 {
			continue
		}
		var slowest float64
		for w := 0; w < streamWorkers; w++ {
			layer := fmt.Sprintf("cluster.exec.w%d", w)
			b := busy(spans, op, layer).Seconds()
			rows[layer] = append(rows[layer], b)
			if b > slowest {
				slowest = b
			}
		}
		rows["seq.reader"] = append(rows["seq.reader"], busy(spans, op, "seq.reader").Seconds())
		rows["coordinator_share"] = append(rows["coordinator_share"], wall-slowest)
		walls = append(walls, wall)
		shares = append(shares, (wall-slowest)/wall)
	}
	b := opBudget{layers: make(map[string]float64), wall: median(walls), gapFrac: median(shares)}
	for row, vals := range rows {
		b.layers[row] = median(vals)
	}
	return b
}
