package simt

import "hmmer3gpu/internal/obs"

// Record merges the launch counters into reg under the simt
// subsystem, one counter per struct field (hmmer_simt_alu_ops_total,
// hmmer_simt_bank_conflict_replays_total, ...) through EachCounter,
// and recomputes the derived lane-utilization gauge from the
// accumulated totals.
func (s *KernelStats) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	i := 0
	s.EachCounter(func(_ string, v int64) {
		reg.AddInt(counterSeries[i], v)
		i++
	})
	active, _ := reg.Get("hmmer_simt_active_lane_slots_total")
	total, _ := reg.Get("hmmer_simt_total_lane_slots_total")
	reg.Set("hmmer_simt_lane_utilization", obs.Ratio(active, total))
	reg.Help("hmmer_simt_lane_utilization",
		"fraction of SIMT lane slots doing real work across memory operations")
	reg.Help("hmmer_simt_bank_conflict_replays_total",
		"excess shared-memory cycles spent replaying bank-conflicting accesses")
}

// Record merges one launch's counters into reg and gauges its
// achieved occupancy under the named kernel.
func (r *LaunchReport) Record(reg *obs.Registry, kernel string) {
	if !reg.Enabled() {
		return
	}
	r.Stats.Record(reg)
	name := obs.WithLabel("hmmer_simt_occupancy", "kernel", kernel)
	reg.Set(name, r.Occupancy.Fraction)
	reg.AddInt(obs.WithLabel("hmmer_simt_launches_total", "kernel", kernel), 1)
}
