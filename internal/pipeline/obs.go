package pipeline

// Observability wiring: every engine emits a span tree
// (search → stage → kernel, with per-batch spans on device tracks in
// the streamed engines) into Options.Trace and merges its counters
// into Options.Metrics. Both default to nil and cost ~nothing when
// unset; see internal/obs.

import (
	"fmt"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// attachProfiler points every device of the run at Options.Profiler
// and tags subsequent launches with the query's model size and memory
// configuration; a nil Profiler leaves the devices untouched (the
// nil-cost-when-off path in simt).
func (pl *Pipeline) attachProfiler(mem gpu.MemConfig, devs ...*simt.Device) {
	prof := pl.Opts.Profiler
	if prof == nil {
		return
	}
	prof.SetLabel("m", fmt.Sprint(pl.Prof.M))
	prof.SetLabel("mem", mem.String())
	for _, d := range devs {
		d.Profiler = prof
	}
}

// startSearch opens the root span of one run on the host track.
func (pl *Pipeline) startSearch(engine string, db *seq.Database) *obs.Span {
	if db == nil {
		return pl.Opts.Trace.Start("host", "search",
			obs.String("engine", engine), obs.Int("model_m", int64(pl.Prof.M)))
	}
	return pl.Opts.Trace.Start("host", "search",
		obs.String("engine", engine),
		obs.Int("model_m", int64(pl.Prof.M)),
		obs.Int("seqs", int64(db.NumSeqs())),
		obs.Int("residues", db.TotalResidues()))
}

// startStage opens a stage span under parent and returns a closure
// that annotates the filtering outcome and ends it.
func startStage(parent *obs.Span, name string) (*obs.Span, func(st *StageStats)) {
	sp := parent.Child("stage:" + name)
	return sp, func(st *StageStats) {
		sp.Annotate(
			obs.Int("in", int64(st.In)),
			obs.Int("out", int64(st.Out)),
			obs.Int("cells", st.Cells))
		sp.End()
	}
}

// Record merges one stage's stats into reg under the pipeline
// subsystem. The pass-fraction gauge is only set once the stage has
// seen input, so the table never carries an undefined ratio.
func (s StageStats) Record(reg *obs.Registry, stage string) {
	if !reg.Enabled() {
		return
	}
	reg.AddInt(obs.WithLabel("hmmer_pipeline_stage_in_total", "stage", stage), int64(s.In))
	reg.AddInt(obs.WithLabel("hmmer_pipeline_stage_out_total", "stage", stage), int64(s.Out))
	reg.AddInt(obs.WithLabel("hmmer_pipeline_stage_cells_total", "stage", stage), s.Cells)
	reg.Add(obs.WithLabel("hmmer_pipeline_stage_wall_seconds_total", "stage", stage), s.Wall.Seconds())
	if s.In > 0 {
		reg.Set(obs.WithLabel("hmmer_pipeline_stage_pass_fraction", "stage", stage), s.PassFraction())
	}
}

// Summary renders "out/in (pct) in wall" for one stage; the pass
// percentage renders "-" when the stage saw no input, never NaN.
func (s StageStats) Summary() string {
	return fmt.Sprintf("%d/%d (%s) in %v",
		s.Out, s.In, obs.Pct(float64(s.Out), float64(s.In)), s.Wall)
}

// Record merges the run's complete statistics into reg: the three
// stage rows, plus whatever the engine left in Extra — kernel
// counters from every launch (simt subsystem) beside their modelled
// device seconds (perf subsystem), the streaming scheduler's
// utilization (sched subsystem), and per-device reports of the static
// multi-GPU split.
func (res *Result) Record(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	res.MSV.Record(reg, "msv")
	res.Viterbi.Record(reg, "viterbi")
	res.Forward.Record(reg, "forward")
	reg.AddInt("hmmer_pipeline_hits_total", int64(len(res.Hits)))

	switch x := res.Extra.(type) {
	case *GPUExtra:
		recordLaunches(reg, x.spec, "msv", searchLaunch(x.MSVReport)...)
		recordLaunches(reg, x.spec, "p7viterbi", searchLaunch(x.VitReport)...)
	case *MultiGPUExtra:
		recordLaunches(reg, x.spec, "msv", launchesOf(x.MSV)...)
		recordLaunches(reg, x.spec, "p7viterbi", launchesOf(x.Vit)...)
	case *MultiGPUStreamExtra:
		if x.Schedule != nil {
			x.Schedule.Record(reg)
		}
		if x.Checkpoint != nil {
			x.Checkpoint.Record(reg)
		}
		var all []*simt.LaunchReport
		for _, b := range x.Batches {
			for _, rep := range b.Launches {
				rep.Stats.Record(reg)
			}
			all = append(all, b.Launches...)
		}
		perf.Record(reg, x.spec, x.kernel, all...)
	case *ClusterStreamExtra:
		if x.Cluster != nil {
			x.Cluster.Record(reg)
		}
		if x.Checkpoint != nil {
			x.Checkpoint.Record(reg)
		}
	}
}

// recordLaunches records one stage's launches — their counters and
// their modelled time on spec — under the kernel's name. A stage that
// did not run (no launches) leaves no series.
func recordLaunches(reg *obs.Registry, spec simt.DeviceSpec, kernel string, launches ...*simt.LaunchReport) {
	if len(launches) == 0 {
		return
	}
	for _, launch := range launches {
		launch.Record(reg, kernel)
	}
	perf.Record(reg, spec, kernel, launches...)
}

// searchLaunch is the launch of one single-device pass, if it ran.
func searchLaunch(rep *gpu.SearchReport) []*simt.LaunchReport {
	if rep == nil {
		return nil
	}
	return []*simt.LaunchReport{rep.Launch}
}

// launchesOf flattens a multi-device report's launch reports.
func launchesOf(mr *gpu.MultiReport) []*simt.LaunchReport {
	if mr == nil {
		return nil
	}
	var out []*simt.LaunchReport
	for _, rep := range mr.PerDevice {
		if rep != nil {
			out = append(out, rep.Launch)
		}
	}
	return out
}
