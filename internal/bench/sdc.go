package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// SDCRow is one scenario of the silent-data-corruption experiment: the
// same streamed single-device search under a seeded bit-flip schedule
// and a result-integrity policy.
type SDCRow struct {
	Scenario string
	// Batches is the number of batches scheduled.
	Batches int
	// Flips is the number of bit flips the injector actually applied;
	// Corrected is the number an ECC device absorbed instead.
	Flips     int64
	Corrected int64
	// Detected and Reruns summarise the integrity layer's activity
	// (see gpu.FaultReport).
	Detected int
	Reruns   int
	// Hits is the number of reported hits.
	Hits int
	// Identical reports the hit list matched the clean run exactly
	// (names, indexes, scores, E-values) — for corrupting scenarios
	// without repair this is the point: it goes false.
	Identical bool
	// Wall is the run's wall-clock time, for the verification-overhead
	// comparison between the clean rows.
	Wall time.Duration
}

// sdcScenarios sweeps flip rates, flip locations and verify modes on
// one non-ECC GTX 580 (a single device keeps the flip schedule fully
// deterministic), plus an ECC K40 control. Readback flips hit the
// score words directly and are grid-detectable; shared-memory flips
// corrupt the DP recurrence mid-kernel and yield well-formed wrong
// scores only the ordering guard can catch, so their detection recall
// is structurally below one — that residual is the experiment's
// honest answer, not a bug.
var sdcScenarios = []struct {
	Name   string
	Spec   string
	ECC    bool
	Verify pipeline.VerifyMode
}{
	{"clean / off", "", false, pipeline.VerifyOff},
	{"clean / guards", "", false, pipeline.VerifyGuards},
	{"readback p=5e-2 / off", "dev0:flip@p=5e-2", false, pipeline.VerifyOff},
	{"readback p=5e-2 / dmr", "dev0:flip@p=5e-2", false, pipeline.VerifyDMR},
	{"burst@launch0 / guards", "dev0:flip@launch=0", false, pipeline.VerifyGuards},
	{"shared p=1e-5 / dmr", "dev0:flip@shared=1e-5", false, pipeline.VerifyDMR},
	{"readback p=5e-2 / ecc k40", "dev0:flip@p=5e-2", true, pipeline.VerifyOff},
}

// SDC runs the silent-data-corruption sweep: seeded bit flips in
// readback buffers and kernel shared memory, under each verify policy,
// measuring what the integrity guards detect, what host re-execution
// repairs, and what verification costs on a clean run.
func SDC(cfg Config, w io.Writer) ([]SDCRow, error) {
	const m = 120
	h, err := cfg.model(m)
	if err != nil {
		return nil, err
	}
	abc := alphabet.New()
	dbSpec := Envnr.specMinSeqs(cfg.MSVCellBudget, m, cfg.Seed+404, 64)
	dbSpec.HomologFrac = 0.3 // a dense hit list gives flips something to provably corrupt
	data, err := workload.Generate(dbSpec, h, abc)
	if err != nil {
		return nil, err
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, data, abc); err != nil {
		return nil, err
	}

	opts := pipeline.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.Trace = cfg.Trace
	opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: cfg.Seed, TailMass: 0.04}
	pl, err := pipeline.New(h, int(data.MeanLen()), opts)
	if err != nil {
		return nil, err
	}
	batchResidues := data.TotalResidues() / 8
	if batchResidues < 1 {
		batchResidues = 1
	}

	fprintf(w, "SDC — %d seqs, M=%d, ~8 batches on 1 device, seeded bit-flip injection\n",
		data.NumSeqs(), m)
	fprintf(w, "%-26s %8s %6s %10s %9s %7s %6s %10s %9s\n",
		"scenario", "batches", "flips", "corrected", "detected", "reruns", "hits", "identical", "wall")

	var rows []SDCRow
	var clean *pipeline.Result
	for _, sc := range sdcScenarios {
		spec := gtx580()
		if sc.ECC {
			spec = simt.TeslaK40()
		}
		sys := cfg.newSystem(spec, 1)
		if sc.Spec != "" {
			plan, err := faults.Parse(sc.Spec, cfg.Seed+505, 1, 0)
			if err != nil {
				return nil, err
			}
			if err := sys.ApplyFaults(plan.Devices); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		res, err := pl.RunMultiGPUStream(sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()),
			pipeline.StreamConfig{BatchResidues: batchResidues, MaxRetries: 10, Verify: sc.Verify})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		wall := time.Since(start)
		sched := res.Extra.(*pipeline.MultiGPUStreamExtra).Schedule
		if clean == nil {
			clean = res
		}
		row := SDCRow{
			Scenario:  sc.Name,
			Batches:   sched.Batches,
			Detected:  sched.Faults.SDCDetected,
			Reruns:    sched.Faults.SDCReruns,
			Hits:      len(res.Hits),
			Identical: identicalHits(clean, res),
			Wall:      wall,
		}
		if inj := sys.Devices[0].Faults; inj != nil && inj.Mem != nil {
			mem := inj.Mem
			row.Flips = mem.Flips()
			row.Corrected = mem.Corrected()
		}
		rows = append(rows, row)
		fprintf(w, "%-26s %8d %6d %10d %9d %7d %6d %10v %9s\n",
			row.Scenario, row.Batches, row.Flips, row.Corrected,
			row.Detected, row.Reruns, row.Hits, row.Identical, row.Wall.Round(time.Millisecond))
	}
	fprintf(w, "guards catch readback flips on the score grid; shared-memory flips need the\n")
	fprintf(w, "ordering guard's luck or DMR; ECC absorbs everything at the device\n")
	return rows, nil
}
