package pipeline

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// tracedStreamRun executes one streamed multi-device search with
// tracing and metrics on, returning both sinks.
func tracedStreamRun(t *testing.T, devices int) (*obs.Tracer, *obs.Registry) {
	t.Helper()
	h, err := workload.Model("obs", 80, abc, 31)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SwissprotLike(0.00012, 32)
	spec.HomologFrac = 0.05
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 7, TailMass: 0.04}
	opts.Trace = obs.New()
	opts.Metrics = obs.NewRegistry()
	pl, err := New(h, int(db.MeanLen()), opts)
	if err != nil {
		t.Fatal(err)
	}
	sys := simt.NewSystem(simt.GTX580(), devices)
	_, err = pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, &fasta,
		StreamConfig{BatchResidues: db.TotalResidues() / 6})
	if err != nil {
		t.Fatal(err)
	}
	return opts.Trace, opts.Metrics
}

// TestStreamTraceNestsSearchBatchStageKernel is the acceptance
// criterion: one streamed multi-GPU run must yield a span tree where
// every kernel span sits under a stage span, under a batch span on a
// device track, under the root search span.
func TestStreamTraceNestsSearchBatchStageKernel(t *testing.T) {
	tr, _ := tracedStreamRun(t, 2)
	spans := tr.Spans()
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}

	var kernels, batches int
	deviceTracks := map[string]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "batch ") {
			batches++
			deviceTracks[s.Track] = true
			if parent := byID[s.Parent]; parent.Name != "search" {
				t.Errorf("batch span %q parented under %q, want search", s.Name, parent.Name)
			}
		}
		if !strings.HasPrefix(s.Name, "kernel:") {
			continue
		}
		kernels++
		stage := byID[s.Parent]
		if !strings.HasPrefix(stage.Name, "stage:") {
			t.Fatalf("kernel %q parented under %q, want a stage span", s.Name, stage.Name)
		}
		batch := byID[stage.Parent]
		if !strings.HasPrefix(batch.Name, "batch ") {
			t.Fatalf("stage %q parented under %q, want a batch span", stage.Name, batch.Name)
		}
		root := byID[batch.Parent]
		if root.Name != "search" || root.Parent != 0 {
			t.Fatalf("batch %q parented under %q, want the root search span", batch.Name, root.Name)
		}
		if !strings.HasPrefix(s.Track, "device") || s.Track != batch.Track {
			t.Errorf("kernel %q on track %q, batch on %q; want a shared device track", s.Name, s.Track, batch.Track)
		}
	}
	if kernels == 0 {
		t.Fatal("no kernel spans recorded")
	}
	if batches < 2 {
		t.Fatalf("got %d batch spans, want several", batches)
	}
	if len(deviceTracks) != 2 {
		t.Errorf("batch spans on tracks %v, want both devices", deviceTracks)
	}

	// The Chrome export of this real run must pass the validator.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil || n != len(spans) {
		t.Fatalf("chrome export of live run: %d spans, err %v (want %d, nil)", n, err, len(spans))
	}
	var jl bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateJSONL(jl.Bytes()); err != nil || n != len(spans) {
		t.Fatalf("jsonl export of live run: %d spans, err %v (want %d, nil)", n, err, len(spans))
	}
}

// TestStreamMetricsMergeThreeSubsystems: the second half of the
// acceptance criterion — one run's registry must carry counters from
// the simulator, the pipeline, and the scheduler (plus the perf
// model), and survive its own exposition round trip.
func TestStreamMetricsMergeThreeSubsystems(t *testing.T) {
	_, reg := tracedStreamRun(t, 2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("live metrics fail exposition parse: %v\n%s", err, buf.String())
	}

	subsystems := map[string]bool{}
	for name := range parsed {
		for _, prefix := range []string{"hmmer_simt_", "hmmer_pipeline_", "hmmer_sched_", "hmmer_perf_"} {
			if strings.HasPrefix(name, prefix) {
				subsystems[prefix] = true
			}
		}
	}
	for _, prefix := range []string{"hmmer_simt_", "hmmer_pipeline_", "hmmer_sched_", "hmmer_perf_"} {
		if !subsystems[prefix] {
			t.Errorf("metrics table missing subsystem %s", prefix)
		}
	}

	// Spot-check load-bearing series.
	if v := parsed["hmmer_simt_warps_executed_total"]; v <= 0 {
		t.Errorf("warps executed = %g, want > 0", v)
	}
	if v := parsed[`hmmer_pipeline_stage_in_total{stage="msv"}`]; v <= 0 {
		t.Errorf("msv stage in = %g, want > 0", v)
	}
	if v := parsed["hmmer_sched_batches_total"]; v < 2 {
		t.Errorf("scheduled batches = %g, want >= 2", v)
	}
	if _, ok := parsed[`hmmer_sched_device_queue_wait_seconds_total{device="0"}`]; !ok {
		t.Error("missing per-device queue-wait series")
	}
	if util := parsed["hmmer_simt_lane_utilization"]; util <= 0 || util > 1 {
		t.Errorf("lane utilization = %g, want in (0, 1]", util)
	}
}

// TestUntracedRunSharesResults: tracing must be observability only —
// the same run with sinks attached returns identical hits, and an
// untraced pipeline records nothing.
func TestUntracedRunStaysCold(t *testing.T) {
	pl := testPipeline(t, 40, 120)
	db := seq.NewDatabase("empty")
	res, err := pl.RunCPU(db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSV.PassFraction() != 0 {
		t.Errorf("zero-input pass fraction = %g, want 0", res.MSV.PassFraction())
	}
	if got := res.MSV.Summary(); !strings.Contains(got, "-") {
		t.Errorf("zero-input stage summary %q should render '-' for the undefined pass fraction", got)
	}
	if pl.Opts.Trace.Enabled() || pl.Opts.Metrics.Enabled() {
		t.Fatal("default options unexpectedly enable observability")
	}
}

// TestPipelineAttachesProfiler: a run with Options.Profiler set must
// collect one record per kernel launch, tagged with the query's model
// size and memory configuration.
func TestPipelineAttachesProfiler(t *testing.T) {
	h, err := workload.Model("prof", 64, abc, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SwissprotLike(0.0001, 24)
	spec.HomologFrac = 0.05
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 9, TailMass: 0.04}
	opts.SkipForward = true
	opts.Profiler = kernprof.NewCollector()
	pl, err := New(h, int(db.MeanLen()), opts)
	if err != nil {
		t.Fatal(err)
	}
	dev := simt.NewDevice(simt.TeslaK40())
	if _, err := pl.RunGPU(dev, gpu.MemShared, db); err != nil {
		t.Fatal(err)
	}
	prof := opts.Profiler.Profile()
	if len(prof.Launches) == 0 {
		t.Fatal("profiler collected no launches")
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]bool{}
	for _, l := range prof.Launches {
		kernels[l.Kernel] = true
		if l.Labels["m"] != "64" || l.Labels["mem"] != "shared" {
			t.Errorf("launch %s labels = %v, want m=64 mem=shared", l.Kernel, l.Labels)
		}
	}
	if !kernels["msv"] || !kernels["p7viterbi"] {
		t.Errorf("profiled kernels %v, want msv and p7viterbi", kernels)
	}
}
