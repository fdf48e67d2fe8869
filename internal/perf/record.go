package perf

import (
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

// Record merges the time model's view of a set of launches into reg
// under the perf subsystem: modelled device seconds per kernel (the
// numbers the paper's speedup figures are built from), alongside
// which wall-clock gauges from the other subsystems sit, so a single
// metrics table shows modelled vs. measured time.
func Record(reg *obs.Registry, spec simt.DeviceSpec, kernel string, reps ...*simt.LaunchReport) {
	if !reg.Enabled() {
		return
	}
	var sec float64
	for _, rep := range reps {
		if rep != nil {
			sec += GPUTime(spec, rep)
		}
	}
	reg.Add(obs.WithLabel("hmmer_perf_modelled_gpu_seconds_total", "kernel", kernel), sec)
	reg.Help("hmmer_perf_modelled_gpu_seconds_total",
		"modelled device execution time (issue/DRAM bound + launch overhead) per kernel")
}
