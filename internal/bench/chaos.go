package bench

import (
	"bytes"
	"fmt"
	"io"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// ChaosRow is one fault-injection scenario of the chaos experiment:
// the same streamed 4-device search run under a seeded fault schedule,
// with the scheduler's recovery activity and whether the results
// stayed bit-identical to the fault-free run.
type ChaosRow struct {
	Scenario string
	// Batches is the number of batches scheduled.
	Batches int
	// Retries, Requeues, Quarantined and Fallbacks summarise the
	// scheduler's fault handling (see gpu.FaultReport).
	Retries     int
	Requeues    int
	Quarantined int
	Fallbacks   int
	// Hits is the number of reported hits.
	Hits int
	// Identical reports the hit list matched the clean run exactly
	// (names, indexes, scores, E-values).
	Identical bool
}

// chaosScenarios are the fault schedules the experiment sweeps. Every
// schedule uses deterministic per-ordinal faults or a seeded
// probability, so each scenario is reproducible.
var chaosScenarios = []struct {
	Name string
	Spec string
}{
	{"clean", ""},
	{"flaky dev0+dev1 (p=0.3)", "dev0:p=0.3;dev1:p=0.3"},
	{"dev2 lost at launch 2", "dev2:dead=2"},
	{"2 flaky + 1 dead", "dev0:p=0.3;dev1:p=0.3;dev2:dead"},
	{"all devices dead", "dev0:dead;dev1:dead;dev2:dead;dev3:dead"},
}

// Chaos runs the fault-injection sweep: a streamed 4-device search
// under escalating fault schedules, asserting the recovery machinery
// (retry, requeue, quarantine, host fallback) keeps the results
// bit-identical to the fault-free run. The last scenario kills every
// device, so the whole stream drains through the CPU fallback.
func Chaos(cfg Config, w io.Writer) ([]ChaosRow, error) {
	const m = 120
	h, err := cfg.model(m)
	if err != nil {
		return nil, err
	}
	abc := alphabet.New()
	dbSpec := Envnr.specMinSeqs(cfg.MSVCellBudget, m, cfg.Seed+202, 64)
	dbSpec.HomologFrac = 0.05 // enough planted homologs for a meaningful hit list
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
	batchResidues := data.TotalResidues() / 16
	if batchResidues < 1 {
		batchResidues = 1
	}

	fprintf(w, "Chaos — %d seqs, M=%d, ~16 batches on 4x %s, seeded fault injection\n",
		data.NumSeqs(), m, gtx580().Name)
	fprintf(w, "%-28s %8s %8s %9s %12s %10s %6s %10s\n",
		"scenario", "batches", "retries", "requeues", "quarantined", "fallbacks", "hits", "identical")

	var rows []ChaosRow
	var clean *pipeline.Result
	for _, sc := range chaosScenarios {
		sys := cfg.newSystem(gtx580(), 4)
		if sc.Spec != "" {
			plan, err := faults.Parse(sc.Spec, cfg.Seed+303, 4, 0)
			if err != nil {
				return nil, err
			}
			if err := sys.ApplyFaults(plan.Devices); err != nil {
				return nil, err
			}
		}
		res, err := pl.RunMultiGPUStream(sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()),
			pipeline.StreamConfig{BatchResidues: batchResidues, MaxRetries: 10})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sched := res.Extra.(*pipeline.MultiGPUStreamExtra).Schedule
		if clean == nil {
			clean = res
		}
		row := ChaosRow{
			Scenario:    sc.Name,
			Batches:     sched.Batches,
			Retries:     sched.Faults.Retries,
			Requeues:    sched.Faults.Requeues,
			Quarantined: sched.Faults.Quarantines,
			Fallbacks:   sched.Faults.Fallbacks,
			Hits:        len(res.Hits),
			Identical:   identicalHits(clean, res),
		}
		rows = append(rows, row)
		fprintf(w, "%-28s %8d %8d %9d %12d %10d %6d %10v\n",
			row.Scenario, row.Batches, row.Retries, row.Requeues,
			row.Quarantined, row.Fallbacks, row.Hits, row.Identical)
	}
	fprintf(w, "fault-tolerant scheduling: every scenario reports the clean run's exact hit list\n")
	return rows, nil
}

// identicalHits reports whether two results carry bit-identical hit
// lists (same order, identities, scores and E-values).
func identicalHits(a, b *pipeline.Result) bool {
	if len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		x, y := a.Hits[i], b.Hits[i]
		if x.Index != y.Index || x.Name != y.Name ||
			x.MSVBits != y.MSVBits || x.VitBits != y.VitBits || x.FwdBits != y.FwdBits ||
			x.PValue != y.PValue || x.EValue != y.EValue {
			return false
		}
	}
	return true
}
