package bench

import (
	"io"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/perf"
)

// SpillRow is one point of the row-spill study: Viterbi on very large
// models with the paper's global configuration vs the spill variant.
type SpillRow struct {
	M             int
	GlobalSpeedup float64
	SpillSpeedup  float64
	GlobalOcc     float64
	SpillOcc      float64
}

// SpillStudy measures the P7Viterbi row-spill variant against the
// paper's global configuration on large models (Envnr-like workload).
func SpillStudy(cfg Config, w io.Writer) ([]SpillRow, error) {
	spec := k40()
	fprintf(w, "\nExtension — P7Viterbi DP-row spill to L2 (large models, Envnr-like)\n")
	fprintf(w, "%8s %14s %14s %12s %12s\n", "M", "global-speedup", "spill-speedup", "global-occ", "spill-occ")
	var rows []SpillRow
	for _, m := range []int{1002, 1528, 2405} {
		h, err := cfg.model(m)
		if err != nil {
			return nil, err
		}
		data, err := cfg.database(Envnr, cfg.VitCellBudget, h)
		if err != nil {
			return nil, err
		}
		_, vp := configuredProfiles(h, data)
		row := SpillRow{M: m}
		for i, mem := range []gpu.MemConfig{gpu.MemGlobal, gpu.MemSpill} {
			plan, err := gpu.PlanViterbi(spec, m, mem)
			if err != nil {
				return nil, err
			}
			t, cells, err := runStage(cfg, spec, Envnr, StageViterbi, mem, nil, vp, data)
			if err != nil {
				return nil, err
			}
			sp := perf.Speedup(cpuStageTime(StageViterbi, cells), t)
			if i == 0 {
				row.GlobalSpeedup, row.GlobalOcc = sp, plan.Occupancy.Fraction
			} else {
				row.SpillSpeedup, row.SpillOcc = sp, plan.Occupancy.Fraction
			}
		}
		rows = append(rows, row)
		fprintf(w, "%8d %13.2fx %13.2fx %11.0f%% %11.0f%%\n",
			m, row.GlobalSpeedup, row.SpillSpeedup, row.GlobalOcc*100, row.SpillOcc*100)
	}
	return rows, nil
}
