package kernprof

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

// testKernel exercises every counter class: ALU, shared loads/stores,
// global span traffic, shuffle and vote.
func testKernel(w *simt.Warp) {
	lanes := w.Lanes()
	words := make([]uint64, lanes/4)
	src, dst := make([]int32, lanes), make([]int32, lanes)
	w.ALU(7)
	w.SharedSpanStoreWords(words, 0, lanes, 2)
	w.SharedSpanLoadWords(words, 0, lanes, 2)
	w.GlobalSpanLoad(0, 4, lanes)
	w.ShflUpI32Into(dst, src, 1)
	w.Vote()
}

// collect runs one launch against a fresh Collector and returns the
// resulting record.
func collect(t *testing.T, mode simt.Mode, blocks, wpb, period int) LaunchRecord {
	t.Helper()
	c := NewCollector()
	c.SetSamplePeriod(period)
	c.SetLabels(map[string]string{"db": "sp", "m": "400"})
	dev := simt.NewDevice(simt.TeslaK40())
	dev.Mode = mode
	dev.Profiler = c
	_, err := dev.Launch(simt.LaunchConfig{
		Blocks: blocks, WarpsPerBlock: wpb,
		SharedBytesPerBlock: 1024, RegsPerThread: 32, Name: "msv",
	}, testKernel)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("collected %d launches, want 1", c.Len())
	}
	return c.Profile().Launches[0]
}

// fullGridBlocks sizes a grid the way gpu.planLaunch does: exactly
// BlocksPerSM blocks on every SM.
func fullGridBlocks(wpb int) int {
	spec := simt.TeslaK40()
	occ := spec.CalcOccupancy(simt.KernelResources{
		RegsPerThread:   32,
		SharedPerBlock:  1024,
		ThreadsPerBlock: wpb * spec.WarpSize,
	})
	return occ.BlocksPerSM * spec.SMCount
}

// TestCountersCoverEveryKernelStatsField is the reflective pin: every
// field of simt.KernelStats must surface in LaunchRecord.Counters
// under the name the counter walk gives it, so adding a simulator
// counter grows the profile automatically.
func TestCountersCoverEveryKernelStatsField(t *testing.T) {
	rec := collect(t, simt.ModeCycleAccurate, 6, 2, 1)
	names := counterNames()
	if n := reflect.TypeOf(simt.KernelStats{}).NumField(); len(names) != n || len(rec.Counters) != n {
		t.Errorf("counter map has %d entries and the walk %d names, KernelStats has %d fields", len(rec.Counters), len(names), n)
	}
	for _, name := range names {
		if _, ok := rec.Counters[name]; !ok {
			t.Errorf("counter %s missing from Counters", name)
		}
	}
	for name, v := range rec.Counters {
		if v < 0 {
			t.Errorf("counter %s = %d, want >= 0", name, v)
		}
	}
	for _, name := range []string{"alu_ops", "shared_loads", "shuffle_ops", "vote_ops", "global_requested_bytes"} {
		if rec.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0 (kernel exercises it)", name)
		}
	}
}

// TestFullGridAchievedMatchesPredicted pins the acceptance criterion:
// for a planLaunch-shaped grid (BlocksPerSM × SMCount) the achieved
// occupancy must stay within 5%% of the prediction.
func TestFullGridAchievedMatchesPredicted(t *testing.T) {
	const wpb = 4
	rec := collect(t, simt.ModeCycleAccurate, fullGridBlocks(wpb), wpb, 1)
	pred, ach := rec.Predicted.Fraction, rec.Achieved.Fraction
	if pred <= 0 {
		t.Fatalf("predicted occupancy %g, want > 0", pred)
	}
	if diff := ach - pred; diff > 0.05*pred || diff < -0.05*pred {
		t.Errorf("achieved %.3f vs predicted %.3f: off by more than 5%%", ach, pred)
	}
	if rec.Achieved.ActiveFraction <= 0 || rec.Achieved.ActiveFraction > 1 {
		t.Errorf("active fraction %g outside (0,1]", rec.Achieved.ActiveFraction)
	}
	if len(rec.PerSM) != simt.TeslaK40().SMCount {
		t.Errorf("per-SM records: %d, want %d", len(rec.PerSM), simt.TeslaK40().SMCount)
	}
	if err := (&Profile{Schema: Schema, Launches: []LaunchRecord{rec}}).Validate(); err != nil {
		t.Errorf("full-grid record fails validation: %v", err)
	}
}

// TestUnderfilledGridShowsTailDip: a single-block grid cannot achieve
// the predicted residency — achieved must dip well below predicted,
// and most cycles must attribute to scheduler wait... except there is
// only one SM active with one block, so the dip is the signal.
func TestUnderfilledGridShowsTailDip(t *testing.T) {
	rec := collect(t, simt.ModeCycleAccurate, 1, 2, 1)
	if rec.Achieved.Fraction >= rec.Predicted.Fraction {
		t.Errorf("1-block grid: achieved %.3f should dip below predicted %.3f",
			rec.Achieved.Fraction, rec.Predicted.Fraction)
	}
}

// TestFastModeScalesCounters pins the sampled-counter contract: with
// period P over B blocks the scaled totals estimate the full grid, and
// warps_executed is exact from geometry.
func TestFastModeScalesCounters(t *testing.T) {
	const blocks, wpb, period = 12, 2, 4
	rec := collect(t, simt.ModeFast, blocks, wpb, period)
	if rec.Mode != "fast" || rec.SamplePeriod != period {
		t.Fatalf("mode/period = %s/%d, want fast/%d", rec.Mode, rec.SamplePeriod, period)
	}
	if rec.SampledBlocks != blocks/period {
		t.Errorf("sampled %d blocks, want %d", rec.SampledBlocks, blocks/period)
	}
	if got, want := rec.Counters["warps_executed"], int64(blocks*wpb); got != want {
		t.Errorf("warps_executed = %d, want exact %d", got, want)
	}
	// Every block runs the same kernel, so the scaled ALU count must
	// land exactly on the full-grid total.
	perBlock := int64(7 * wpb)
	if got, want := rec.Counters["alu_ops"], perBlock*blocks; got != want {
		t.Errorf("alu_ops = %d, want %d (scaled to full grid)", got, want)
	}
	if rec.BlockCycles == nil || rec.BlockCycles.Count != uint64(blocks/period) {
		t.Errorf("block-cycle histogram covers %v samples, want %d", rec.BlockCycles, blocks/period)
	}
}

// TestStallAttributionNonZero: the test kernel touches shared and
// global memory, so memory stall cycles and compute cycles must both
// be attributed.
func TestStallAttributionNonZero(t *testing.T) {
	rec := collect(t, simt.ModeCycleAccurate, 6, 2, 1)
	if rec.Stalls.ComputeCycles <= 0 {
		t.Errorf("compute cycles = %d, want > 0", rec.Stalls.ComputeCycles)
	}
	if rec.Stalls.MemoryCycles <= 0 {
		t.Errorf("memory cycles = %d, want > 0", rec.Stalls.MemoryCycles)
	}
	if rec.Stalls.BarrierCycles != 0 {
		t.Errorf("barrier cycles = %d, want 0 (no Sync in kernel)", rec.Stalls.BarrierCycles)
	}
}

// TestRecordReachesRegistryAndExporters is satellite 4's pin: every
// counter name must surface in the obs.Registry and the Prometheus
// text, and the block-cycle histogram must surface as a Chrome
// counter event.
func TestRecordReachesRegistryAndExporters(t *testing.T) {
	rec := collect(t, simt.ModeCycleAccurate, 6, 2, 1)
	p := &Profile{Schema: Schema, Launches: []LaunchRecord{rec}}
	reg := obs.NewRegistry()
	p.Record(reg)

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()

	for _, name := range counterNames() {
		series := "hmmer_kernprof_" + name + "_total"
		if _, ok := reg.Get(obs.WithLabel(series, "kernel", "msv")); !ok {
			t.Errorf("registry missing %s{kernel=\"msv\"}", series)
		}
		if !strings.Contains(text, series) {
			t.Errorf("Prometheus output missing %s", series)
		}
	}
	for _, series := range []string{
		"hmmer_kernprof_predicted_occupancy",
		"hmmer_kernprof_achieved_occupancy",
		"hmmer_kernprof_active_occupancy",
		"hmmer_kernprof_warp_exec_efficiency",
		"hmmer_kernprof_bank_conflict_replay_rate",
		"hmmer_kernprof_coalescing_efficiency",
		"hmmer_kernprof_stall_cycles_total",
		"hmmer_kernprof_block_cycles_bucket",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("Prometheus output missing %s", series)
		}
	}
	if _, err := obs.ParsePrometheus(prom.Bytes()); err != nil {
		t.Errorf("exported text does not round-trip: %v", err)
	}

	// The histogram must also surface as a Chrome counter event.
	tr := obs.New()
	tr.Start("host", "run").End()
	var chrome bytes.Buffer
	if err := tr.WriteChromeTraceWithCounters(&chrome, reg); err != nil {
		t.Fatal(err)
	}
	st, err := obs.ValidateChromeTraceStats(chrome.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Counters == 0 {
		t.Error("Chrome trace has no counter events for the block-cycle histogram")
	}
}

// TestJSONRoundTrip: WriteJSON → Read must reproduce the profile.
func TestJSONRoundTrip(t *testing.T) {
	rec := collect(t, simt.ModeFast, 12, 2, 4)
	p := &Profile{Schema: Schema, Launches: []LaunchRecord{rec}}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// TestValidateRejects enumerates the invariants tracecheck enforces.
func TestValidateRejects(t *testing.T) {
	base := func() *Profile {
		rec := collect(t, simt.ModeCycleAccurate, 2, 1, 1)
		return &Profile{Schema: Schema, Launches: []LaunchRecord{rec}}
	}
	cases := []struct {
		name  string
		mutP  func(*Profile)
		wants string
	}{
		{"bad schema", func(p *Profile) { p.Schema = "nvprof/v12" }, "schema"},
		{"negative counter", func(p *Profile) { p.Launches[0].Counters["alu_ops"] = -1 }, "negative counter"},
		{"occupancy above one", func(p *Profile) { p.Launches[0].Achieved.Fraction = 1.5 }, "outside [0,1]"},
		{"bad mode", func(p *Profile) { p.Launches[0].Mode = "warp-speed" }, "unknown mode"},
		{"bad geometry", func(p *Profile) { p.Launches[0].Blocks = 0 }, "bad geometry"},
		{"bad sample period", func(p *Profile) { p.Launches[0].SamplePeriod = 0 }, "sample period"},
		{"per-SM occupancy", func(p *Profile) { p.Launches[0].PerSM[0].Occupancy = -0.1 }, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutP(p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.wants)
			}
		})
	}
}

// TestCollapseNotes pins the fig9 shared-config collapse detector: a
// model sweep whose predicted occupancy drops ≥ 1.5× between adjacent
// sizes must emit a note, and WriteOccupancy must print it.
func TestCollapseNotes(t *testing.T) {
	mk := func(m string, occ float64) LaunchRecord {
		return LaunchRecord{
			Kernel: "msv", Mode: "cycles", Blocks: 1, WarpsPerBlock: 1, SamplePeriod: 1,
			Labels:    map[string]string{"db": "sp", "mem": "shared", "m": m},
			Predicted: OccupancyView{Fraction: occ, Limiter: "shared"},
		}
	}
	p := &Profile{Schema: Schema, Launches: []LaunchRecord{
		mk("1528", 0.25), mk("400", 0.75), mk("960", 0.75), mk("1056", 0.25),
	}}
	notes := p.collapseNotes()
	if len(notes) != 1 {
		t.Fatalf("got %d notes, want 1: %v", len(notes), notes)
	}
	if !strings.Contains(notes[0], "occupancy collapse") ||
		!strings.Contains(notes[0], "M=960") || !strings.Contains(notes[0], "M=1056") {
		t.Errorf("note does not name the 960→1056 collapse: %s", notes[0])
	}
	var buf bytes.Buffer
	if err := p.WriteOccupancy(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "occupancy collapse") {
		t.Error("WriteOccupancy output missing the collapse note")
	}

	// A smooth sweep stays silent.
	smooth := &Profile{Schema: Schema, Launches: []LaunchRecord{
		mk("400", 0.75), mk("960", 0.70), mk("1528", 0.65),
	}}
	if notes := smooth.collapseNotes(); len(notes) != 0 {
		t.Errorf("smooth sweep produced notes: %v", notes)
	}
}

// TestReportAndFlameRender smoke-tests the text renderers on a real
// collection.
func TestReportAndFlameRender(t *testing.T) {
	rec := collect(t, simt.ModeCycleAccurate, 6, 2, 1)
	p := &Profile{Schema: Schema, Launches: []LaunchRecord{rec}}
	var rep bytes.Buffer
	if err := p.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kernprof profile: 1 launches", "== kernels ==", "== occupancy ==",
		"== stall attribution (cycles) ==", "msv", "db=sp m=400"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
	var flame bytes.Buffer
	if err := p.WriteFlame(&flame); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"msv;compute ", "msv;stall;memory-latency ", "msv;stall;barrier ", "msv;stall;scheduler-wait "} {
		if !strings.Contains(flame.String(), want) {
			t.Errorf("flame output missing %q:\n%s", want, flame.String())
		}
	}
}

// TestMergeResequences: merged profiles renumber Seq contiguously.
func TestMergeResequences(t *testing.T) {
	a := &Profile{Schema: Schema, Launches: []LaunchRecord{{Kernel: "msv"}}}
	b := &Profile{Schema: Schema, Launches: []LaunchRecord{{Kernel: "vit", Seq: 7}, {Kernel: "fwd", Seq: 9}}}
	a.Merge(b)
	for i, l := range a.Launches {
		if l.Seq != i {
			t.Errorf("launch %d has Seq %d", i, l.Seq)
		}
	}
}

// TestNilCollectorSafe: every method tolerates a nil receiver, the
// same discipline as obs.
func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.SetSamplePeriod(4)
	c.SetLabels(map[string]string{"a": "b"})
	c.OnLaunch(nil)
	if c.SamplePeriod() != 1 {
		t.Errorf("nil SamplePeriod = %d, want 1", c.SamplePeriod())
	}
	if c.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", c.Len())
	}
	if p := c.Profile(); p.Schema != Schema || len(p.Launches) != 0 {
		t.Errorf("nil Profile = %+v", p)
	}
}

// counterNames lists the counter names simt's one KernelStats walk
// yields, in declaration order.
func counterNames() []string {
	var names []string
	(&simt.KernelStats{}).EachCounter(func(name string, _ int64) { names = append(names, name) })
	return names
}
