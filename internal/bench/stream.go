package bench

import (
	"bytes"
	"context"
	"io"
	"slices"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// StreamScalingRow is one point of the streamed multi-device scaling
// run: the same Env_nr-like workload streamed through
// pipeline.RunMultiGPUStreamContext on 1, 2 and 4 GTX 580s with dynamic batch
// scheduling instead of the static Partition split.
type StreamScalingRow struct {
	Devices int
	// Batches is the number of residue-balanced batches scheduled.
	Batches int
	// DeviceSeconds is the modelled busy time of the busiest device
	// (the stage completes when the last device drains) on the replayed
	// timeline: which real device ran which batch is the host's
	// goroutine schedule, but a batch's modelled time is the batch's
	// alone, so the modelled run is those times list-scheduled in batch
	// order onto Devices virtual devices — lowest clock first, ties to
	// the lowest index — and repeats bit for bit on any host.
	DeviceSeconds float64
	// Throughput is residues per modelled second.
	Throughput float64
	// Speedup is DeviceSeconds(1 device) / DeviceSeconds(n devices).
	Speedup float64
	// Util is the *host* split: how the scheduler's goroutines happened
	// to share the batches in this run (measured busy wall time,
	// residues, batches served). It differs run to run and feeds no
	// modelled field.
	Util []gpu.DeviceUtilization
	// Imbalance is busiest/mean modelled device time on the replayed
	// timeline (1.0 = perfect).
	Imbalance float64
}

// StreamScaling measures streamed multi-device scaling on a skew-free
// workload (every sequence the same length, so any scaling loss is the
// scheduler's fault, not the input's): near-linear throughput growth
// at 1/2/4 devices is the paper's §IV-A claim carried over to the
// streaming scheduler.
func StreamScaling(cfg Config, w io.Writer) ([]StreamScalingRow, error) {
	const m = 400
	spec := gtx580()
	h, err := cfg.model(m)
	if err != nil {
		return nil, err
	}

	// Skew-free Env_nr-like input: constant sequence length, enough
	// sequences for ~8 batches per device at 4 devices.
	dbSpec := Envnr.specMinSeqs(cfg.MSVCellBudget, m, cfg.Seed+101, 128)
	dbSpec.LogSigma = 0
	data, err := workload.Generate(dbSpec, h, alphabet.New())
	if err != nil {
		return nil, err
	}
	abc := alphabet.New()
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, data, abc); err != nil {
		return nil, err
	}

	opts := pipeline.DefaultOptions()
	opts.SkipForward = true
	opts.Workers = cfg.Workers
	opts.Trace = cfg.Trace
	opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: cfg.Seed, TailMass: 0.04}
	pl, err := pipeline.New(h, int(data.MeanLen()), opts)
	if err != nil {
		return nil, err
	}
	batchResidues := data.TotalResidues() / 32
	if batchResidues < 1 {
		batchResidues = 1
	}

	fprintf(w, "Streamed scaling — %d seqs x %d residues (skew-free), M=%d, ~32 batches, %s\n",
		data.NumSeqs(), data.Seqs[0].Len(), m, spec.Name)
	fprintf(w, "%8s %8s %14s %16s %8s %10s\n",
		"devices", "batches", "device-time", "residues/s", "speedup", "imbalance")

	var rows []StreamScalingRow
	var base float64
	for _, n := range []int{1, 2, 4} {
		sys := cfg.newSystem(spec, n)
		res, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()),
			pipeline.StreamConfig{BatchResidues: batchResidues})
		if err != nil {
			return nil, err
		}
		extra := res.Extra.(*pipeline.MultiGPUStreamExtra)

		clocks := make([]float64, n)
		var sum float64
		for _, b := range extra.Batches {
			var t float64
			for _, rep := range b.Launches {
				t += perf.GPUTime(spec, rep)
			}
			next := 0
			for i, c := range clocks {
				if c < clocks[next] {
					next = i
				}
			}
			clocks[next] += t
			sum += t
		}
		worst := slices.Max(clocks)
		row := StreamScalingRow{
			Devices:       n,
			Batches:       extra.Schedule.Batches,
			DeviceSeconds: worst,
			Util:          extra.Schedule.Util,
		}
		if worst > 0 {
			row.Throughput = float64(extra.Schedule.Residues) / worst
			row.Imbalance = worst / (sum / float64(n))
		}
		if n == 1 {
			base = worst
		}
		if worst > 0 {
			row.Speedup = base / worst
		}
		rows = append(rows, row)
		fprintf(w, "%8d %8d %12.3fms %16.0f %7.2fx %9.2fx\n",
			n, row.Batches, row.DeviceSeconds*1e3, row.Throughput, row.Speedup, row.Imbalance)
	}
	fprintf(w, "dynamic batch scheduling keeps every device fed: speedup tracks device count\n")
	return rows, nil
}
