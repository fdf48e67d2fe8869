package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
)

// ctxErr maps a kernel launch aborted by ctx back to ctx's error, so
// context-aware engines report context.Canceled / DeadlineExceeded
// rather than the simulator's internal sentinel.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil && errors.Is(err, simt.ErrLaunchCanceled) {
		return ctx.Err()
	}
	return err
}

// filterBackend is where the cascade runs its two filter stages: score
// every sequence of db with the MSV filter, or with the P7Viterbi
// filter, results in database order, honouring ctx mid-database. A
// backend that launches kernels nests them under stage (nilable). There
// are exactly three — the host, one device, the static multi-device
// split — and each keeps what it last ran for its entry point's Extra.
type filterBackend interface {
	msv(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error)
	viterbi(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error)
}

// cascade is the pipeline of Figure 1, written once: MSV over db, the
// survivors through P7Viterbi, their survivors through host Forward
// into thresholded, annotated, sorted hits. Every engine is
// this function over a different backend, on a whole database or on
// one streamed batch — hit indexes are relative to db, a streaming
// caller rebases them. parent (nilable) parents the stage spans. chk
// (nilable) runs the integrity guards on each stage's output before it
// is used; a guard failure surfaces as a wrapped *integrity.Error
// before any result is built, so a scheduler discards the attempt with
// the batch's merge token untouched.
func (pl *Pipeline) cascade(ctx context.Context, f filterBackend, chk *integrity.Checker,
	db *seq.Database, parent *obs.Span) (*Result, error) {

	result := &Result{}
	m := int64(pl.Prof.M)

	start := time.Now()
	span, endStage := startStage(parent, "msv")
	msvRes, err := f.msv(ctx, db, span)
	if err != nil {
		return nil, err
	}
	if chk != nil {
		if err := chk.CheckMSV(msvRes); err != nil {
			return nil, fmt.Errorf("pipeline: msv batch: %w", err)
		}
	}
	result.MSV = StageStats{In: db.NumSeqs(), Cells: db.TotalResidues() * m, Wall: time.Since(start)}
	var msvSurvivors []int
	for i, res := range msvRes {
		if pl.msvPass(res) {
			msvSurvivors = append(msvSurvivors, i)
		}
	}
	result.MSV.Out = len(msvSurvivors)
	endStage(&result.MSV)

	start = time.Now()
	span, endStage = startStage(parent, "viterbi")
	sub := subDatabase(db, msvSurvivors)
	var vitSurvivors []int // database indexes
	var vitBits []float64  // and their Viterbi bit scores, in step
	if sub.NumSeqs() > 0 { // nothing survived MSV: no Viterbi pass, no launch
		vitRes, err := f.viterbi(ctx, sub, span)
		if err != nil {
			return nil, err
		}
		if chk != nil {
			if err := chk.CheckViterbi(vitRes); err != nil {
				return nil, fmt.Errorf("pipeline: viterbi batch: %w", err)
			}
		}
		for j, res := range vitRes {
			if pl.vitPass(res) {
				vitSurvivors = append(vitSurvivors, msvSurvivors[j])
				vitBits = append(vitBits, bitsOf(res))
			}
		}
	}
	result.Viterbi = StageStats{In: len(msvSurvivors), Out: len(vitSurvivors),
		Cells: sub.TotalResidues() * m, Wall: time.Since(start)}
	endStage(&result.Viterbi)

	result.Forward.In = len(vitSurvivors)
	if pl.Opts.SkipForward {
		return result, nil
	}
	start = time.Now()
	_, endStage = startStage(parent, "forward")
	var nats []float64
	if len(vitSurvivors) > 0 { // nothing survived Viterbi: no scoring pass
		sub = subDatabase(db, vitSurvivors)
		if nats, err = pl.hostForward(ctx, sub); err != nil {
			return nil, err
		}
		result.Forward.Cells = sub.TotalResidues() * m
	}
	for j, idx := range vitSurvivors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dsq := db.Seqs[idx].Residues
		fwdNats := nats[j]
		po := pl.maybeDecode(dsq)
		if pl.Opts.UseNull2 && po != nil {
			fwdNats -= refimpl.Null2Correction(pl.Prof, dsq, po)
		}
		fwdBits := stats.BitsFromNats(fwdNats)
		pv := pl.FwdExp.Surv(fwdBits)
		if pv > pl.Opts.Thresholds.Forward {
			continue
		}
		hit := Hit{
			Index:   idx,
			Name:    db.Seqs[idx].Name,
			MSVBits: bitsOf(msvRes[idx]),
			VitBits: vitBits[j],
			FwdBits: fwdBits,
			PValue:  pv,
			EValue:  stats.EValue(pv, db.NumSeqs()),
		}
		pl.annotate(&hit, dsq, po)
		result.Hits = append(result.Hits, hit)
	}
	result.Forward.Out, result.Forward.Wall = len(result.Hits), time.Since(start)
	endStage(&result.Forward)
	sortHits(result.Hits)
	if chk != nil {
		// The only guard spanning stages: a shared-memory flip that
		// produced a wrong but on-grid filter score can still betray
		// itself by breaking MSV <= Viterbi <= Forward on a hit.
		for _, h := range result.Hits {
			if err := chk.CheckHit(h.Index, h.MSVBits, h.VitBits, h.FwdBits); err != nil {
				return nil, fmt.Errorf("pipeline: hit scores: %w", err)
			}
		}
	}
	return result, nil
}

// hostFilters runs the filter stages on the striped multicore CPU
// engine. ctx is checked before every sequence.
type hostFilters struct {
	pl *Pipeline
	// msvResults holds the last MSV pass's raw per-sequence results.
	msvResults []cpu.FilterResult
}

func (h *hostFilters) msv(ctx context.Context, db *seq.Database, _ *obs.Span) ([]cpu.FilterResult, error) {
	res, err := cpu.Engine{Workers: h.pl.Opts.Workers}.MSVAllContext(ctx, h.pl.MSV, db)
	h.msvResults = res
	return res, err
}

func (h *hostFilters) viterbi(ctx context.Context, db *seq.Database, _ *obs.Span) ([]cpu.FilterResult, error) {
	return cpu.Engine{Workers: h.pl.Opts.Workers}.ViterbiAllContext(ctx, h.pl.Vit, db)
}

// deviceFilters runs the filter stages on one device through its bound
// worker (profiles uploaded once, each database uploaded per pass).
// Kernel launches poll ctx.Done() between blocks, so cancellation
// interrupts a pass mid-kernel. One value serves one cascade.
type deviceFilters struct {
	w *gpu.DeviceWorker
	// msvRep and vitRep are the passes' reports; vitRep stays nil when
	// nothing survived MSV.
	msvRep, vitRep *gpu.SearchReport
}

func (d *deviceFilters) msv(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error) {
	d.w.S.Trace, d.w.S.Cancel = stage, ctx.Done()
	rep, err := d.w.MSVBatch(db)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	d.msvRep = rep
	return rep.Results, nil
}

func (d *deviceFilters) viterbi(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error) {
	d.w.S.Trace, d.w.S.Cancel = stage, ctx.Done()
	rep, err := d.w.ViterbiBatch(db)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	d.vitRep = rep
	return rep.Results, nil
}

// launches lists the kernel launches of the cascade d served, in order.
func (d *deviceFilters) launches() []*simt.LaunchReport {
	return append(searchLaunch(d.msvRep), searchLaunch(d.vitRep)...)
}

// splitFilters runs the filter stages across all devices of a system
// with the static Partition split of §IV-A; every shard's launch polls
// ctx.Done() between blocks.
type splitFilters struct {
	pl             *Pipeline
	ms             *gpu.MultiSearcher
	msvRep, vitRep *gpu.MultiReport
}

func (s *splitFilters) msv(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error) {
	s.ms.Trace, s.ms.Cancel = stage, ctx.Done()
	rep, err := s.ms.MSVSearch(s.pl.MSV, db)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	s.msvRep = rep
	return rep.Results, nil
}

func (s *splitFilters) viterbi(ctx context.Context, db *seq.Database, stage *obs.Span) ([]cpu.FilterResult, error) {
	s.ms.Trace, s.ms.Cancel = stage, ctx.Done()
	rep, err := s.ms.ViterbiSearch(s.pl.Vit, db)
	if err != nil {
		return nil, ctxErr(ctx, err)
	}
	s.vitRep = rep
	return rep.Results, nil
}

// CPUExtra carries the CPU engine's bookkeeping.
type CPUExtra struct {
	// MSVResults holds the raw per-sequence MSV filter results.
	MSVResults []cpu.FilterResult
}

// searchHost is the cascade on the host CPU: the body of RunCPU, of
// every CPU-streamed batch, of the streamed engines' host fallback and
// DMR rerun, and of the cluster's CPU workers and degraded local path.
// ctx is checked before every sequence in the filter stages and before
// every Forward rescore, so a deadline stops it mid-database.
func (pl *Pipeline) searchHost(ctx context.Context, db *seq.Database, parent *obs.Span) (*Result, error) {
	host := &hostFilters{pl: pl}
	result, err := pl.cascade(ctx, host, nil, db, parent)
	if err != nil {
		return nil, err
	}
	result.Extra = &CPUExtra{MSVResults: host.msvResults}
	return result, nil
}

// RunCPU executes the pipeline with the striped multicore CPU engine —
// the paper's baseline configuration.
func (pl *Pipeline) RunCPU(db *seq.Database) (*Result, error) {
	root := pl.startSearch("cpu", db)
	defer root.End()
	result, err := pl.searchHost(context.Background(), db, root)
	if err == nil {
		result.Record(pl.Opts.Metrics)
	}
	return result, err
}

// GPUExtra carries the GPU engine's launch reports for the perf model.
type GPUExtra struct {
	MSVReport *gpu.SearchReport
	VitReport *gpu.SearchReport

	spec simt.DeviceSpec // the device's, for the modelled times Record derives
}

// RunGPU executes the MSV and P7Viterbi stages on the device (the
// paper's accelerated configuration) with the Forward stage on the
// host, as in the paper.
func (pl *Pipeline) RunGPU(dev *simt.Device, mem gpu.MemConfig, db *seq.Database) (*Result, error) {
	root := pl.startSearch("gpu", db)
	defer root.End()
	pl.attachProfiler(mem, dev)
	filters := &deviceFilters{w: gpu.NewDeviceWorker(dev, mem, pl.Opts.Workers, pl.MSV, pl.Vit)}
	result, err := pl.cascade(context.Background(), filters, nil, db, root)
	if err != nil {
		return nil, err
	}
	result.Extra = &GPUExtra{MSVReport: filters.msvRep, VitReport: filters.vitRep, spec: dev.Spec}
	result.Record(pl.Opts.Metrics)
	return result, nil
}

// MultiGPUExtra carries the per-device reports.
type MultiGPUExtra struct {
	MSV *gpu.MultiReport
	Vit *gpu.MultiReport

	spec simt.DeviceSpec // the devices', for the modelled times Record derives
}

// RunMultiGPU executes the filter stages across all devices of a
// system (the paper's 4x GTX 580 configuration).
func (pl *Pipeline) RunMultiGPU(sys *simt.System, mem gpu.MemConfig, db *seq.Database) (*Result, error) {
	if sys == nil || len(sys.Devices) == 0 {
		return nil, fmt.Errorf("pipeline: no devices")
	}
	root := pl.startSearch("multigpu", db)
	defer root.End()
	pl.attachProfiler(mem, sys.Devices...)
	filters := &splitFilters{pl: pl, ms: &gpu.MultiSearcher{Sys: sys, Mem: mem, HostWorkers: pl.Opts.Workers}}
	result, err := pl.cascade(context.Background(), filters, nil, db, root)
	if err != nil {
		return nil, err
	}
	result.Extra = &MultiGPUExtra{MSV: filters.msvRep, Vit: filters.vitRep, spec: sys.Devices[0].Spec}
	result.Record(pl.Opts.Metrics)
	return result, nil
}

// subDatabase builds a view holding the sequences at the given indexes.
func subDatabase(db *seq.Database, idx []int) *seq.Database {
	sub := &seq.Database{Name: db.Name, Seqs: make([]*seq.Sequence, len(idx))}
	for j, i := range idx {
		sub.Seqs[j] = db.Seqs[i]
	}
	return sub
}
