package kernprof

import (
	"sort"

	"hmmer3gpu/internal/obs"
)

// Record merges the profile into reg under the kernprof subsystem,
// aggregated per kernel: every raw counter becomes
// hmmer_kernprof_<counter>_total{kernel="..."} (the counters
// simt.KernelStats.EachCounter walks, so a new field automatically
// gains a series), the headline ratios become gauges, stall attribution
// becomes a cause-labelled counter, and the per-block cycle
// distribution merges into a histogram (which the Chrome exporter
// then renders as a counter event).
func (p *Profile) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	for i := range p.Launches {
		l := &p.Launches[i]
		kernel := l.Kernel
		if kernel == "" {
			kernel = "kernel"
		}
		reg.AddInt(obs.WithLabel("hmmer_kernprof_launches_total", "kernel", kernel), 1)

		names := make([]string, 0, len(l.Counters))
		for name := range l.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			reg.AddInt(obs.WithLabel("hmmer_kernprof_"+name+"_total", "kernel", kernel), l.Counters[name])
		}

		reg.Set(obs.WithLabel("hmmer_kernprof_predicted_occupancy", "kernel", kernel), l.Predicted.Fraction)
		reg.Set(obs.WithLabel("hmmer_kernprof_achieved_occupancy", "kernel", kernel), l.Achieved.Fraction)
		reg.Set(obs.WithLabel("hmmer_kernprof_active_occupancy", "kernel", kernel), l.Achieved.ActiveFraction)
		reg.Set(obs.WithLabel("hmmer_kernprof_warp_exec_efficiency", "kernel", kernel), l.Derived.WarpExecEfficiency)
		reg.Set(obs.WithLabel("hmmer_kernprof_bank_conflict_replay_rate", "kernel", kernel), l.Derived.BankConflictReplayRate)
		reg.Set(obs.WithLabel("hmmer_kernprof_coalescing_efficiency", "kernel", kernel), l.Derived.CoalescingEfficiency)

		for _, s := range []struct {
			cause  string
			cycles int64
		}{
			{"compute", l.Stalls.ComputeCycles},
			{"memory", l.Stalls.MemoryCycles},
			{"barrier", l.Stalls.BarrierCycles},
			{"scheduler-wait", l.Stalls.SchedulerWaitCycles},
		} {
			name := obs.WithLabel("hmmer_kernprof_stall_cycles_total", "kernel", kernel)
			reg.AddInt(obs.WithLabel(name, "cause", s.cause), s.cycles)
		}

		if l.BlockCycles != nil {
			reg.MergeHist(obs.WithLabel("hmmer_kernprof_block_cycles", "kernel", kernel), l.BlockCycles)
		}
	}
	reg.Help("hmmer_kernprof_launches_total", "kernel launches profiled by kernprof")
	reg.Help("hmmer_kernprof_achieved_occupancy", "achieved residency occupancy (resident warps per SM / max)")
	reg.Help("hmmer_kernprof_predicted_occupancy", "resource-arithmetic occupancy prediction")
	reg.Help("hmmer_kernprof_stall_cycles_total", "cycle attribution across compute/memory/barrier/scheduler-wait")
	reg.Help("hmmer_kernprof_block_cycles", "per-block issue+stall cycles over sampled blocks")
}
