package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hmmer3gpu/internal/pipeline"
)

// runConfig is what every workload is run with.
type runConfig struct {
	seed int64
	// window is how long the timed loop measures (--seconds).
	window time.Duration
	// tracedOps is how many traced ops the traced pass records.
	tracedOps int
	sz        sizes
	// scratch is a directory inside the checkout for files a workload
	// must really write (the journal).
	scratch string
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	// attempted and failed count ops: an op fails when it errors, is
	// shed or refused, or its output differs from the reference.
	attempted, failed int
	// failures keeps the first few reasons for the log.
	failures []string
	metrics  metricSet
	// trace is the traced pass's spans and time budget, for
	// trace_<workload>.json.
	trace *traceDump
}

func newResult() *workloadResult { return &workloadResult{metrics: metricSet{}} }

// check counts one op and records why it failed, if it did.
func (r *workloadResult) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// traceDump is the content of trace_<workload>.json.
type traceDump struct {
	Workload string `json:"workload"`
	// WallS is the median wall of a traced op; BudgetS its time budget
	// in seconds per row. For a serially driven workload the rows are
	// layer self times and, with the row "other", sum to WallS.
	WallS   float64            `json:"wall_s"`
	BudgetS map[string]float64 `json:"budget_s"`
	// Notes says what the rows are for a concurrent workload, where they
	// are not self times.
	Notes string `json:"notes,omitempty"`
	Spans []span `json:"spans"`
}

// A workload runs untraced (end-to-end metrics) or traced (its
// per-layer budget rows).
type workloadDef struct {
	name string
	run  func(cfg runConfig, traced bool) (*workloadResult, error)
}

// workloads in BENCHMARK.json's order, which records why each was
// chosen; README.md says more.
var workloads = []workloadDef{
	{"oneshot_cpu", runOneshot},
	{"device_cycles", runDevice},
	{"stream_cluster", runStream},
	{"serve_mix", runServe},
}

// settle runs before every timed op so that one op's garbage is not
// collected on the next op's clock.
func settle() { runtime.GC() }

// timedLoop runs op until the window has elapsed, and at least minOps
// times. The caller's warm-up op comes first and is not part of it.
func timedLoop(window time.Duration, minOps int, op func()) {
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < window; n++ {
		settle()
		op()
	}
}

// tracedWalls is what a traced pass measured: the traced ops that
// passed the gate, and the median wall of a traced and of an untraced
// op, in seconds.
type tracedWalls struct {
	ops           []int
	traced, plain float64
}

// tracedPass runs n traced ops, numbered from 1, and an untraced op
// after every odd one: the untraced ops give the overhead figure, the
// stage rows and the allocation per op. Both callbacks count their op
// with workloadResult.check and report whether it passed; plain also
// says how many ops it stood for (a schedule's requests on serve_mix).
// ok is false when either kind never passed.
func tracedPass(m metricSet, n int, traced func(op int) (wall float64, ok bool),
	plain func() (wall float64, units int, ok bool)) (tw tracedWalls, ok bool) {

	var tracedWall, plainWall []float64
	for op := 1; op <= n; op++ {
		settle()
		if wall, ok := traced(op); ok {
			tw.ops = append(tw.ops, op)
			tracedWall = append(tracedWall, wall)
		}
		if op%2 == 0 {
			continue
		}
		settle()
		before := allocMB()
		if wall, units, ok := plain(); ok {
			m.add("pipeline.alloc_mb_per_op", "MB", (allocMB()-before)/float64(units))
			plainWall = append(plainWall, wall)
		}
	}
	tw.traced, tw.plain = median(tracedWall), median(plainWall)
	return tw, len(tracedWall) > 0 && len(plainWall) > 0
}

// traceRows emits the traced pass's own two rows and builds the trace
// file. Overhead is traced wall over untraced wall minus one; gap is
// the share of a traced op's wall the budget rows do not place.
func traceRows(m metricSet, name string, spans []span, b opBudget, tw tracedWalls, notes string) *traceDump {
	m.add("trace.overhead_frac", "ratio", tw.traced/tw.plain-1)
	m.add("trace.budget_gap_frac", "ratio", b.gapFrac)
	return &traceDump{Workload: name, WallS: b.wall, BudgetS: b.layers, Notes: notes, Spans: spans}
}

// setupReps is how many times a workload sets up in one run: several
// for the end-to-end setup_s median, once when only layers are traced.
func setupReps(traced bool, untraced int) int {
	if traced {
		return 1
	}
	return untraced
}

// digest is the bytes an op's output is compared by: the tblout the
// user sees plus the stage counts, so a search that reports no hits
// (Forward skipped) is still checked.
func digest(queryName string, res *pipeline.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := pipeline.WriteTblout(&buf, queryName, res); err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "# msv %d/%d cells %d; viterbi %d/%d cells %d; forward %d/%d cells %d\n",
		res.MSV.Out, res.MSV.In, res.MSV.Cells,
		res.Viterbi.Out, res.Viterbi.In, res.Viterbi.Cells,
		res.Forward.Out, res.Forward.In, res.Forward.Cells)
	return buf.Bytes(), nil
}

// sameOutput is the correctness gate: got must be byte-identical to the
// reference computed during set-up.
func sameOutput(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("%s: output differs from the CPU reference (%d bytes, want %d)", what, len(got), len(want))
}

func totalCells(res *pipeline.Result) int64 {
	return res.MSV.Cells + res.Viterbi.Cells + res.Forward.Cells
}

// allocMB reads the bytes allocated so far, for alloc_mb_per_op deltas.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// stageRows emits the pipeline budget rows of one search: the stage
// walls the public Run* call returned, and what is left of the search
// wall. parallel is how many executors ran stages at once; their
// summed stage walls are divided by it before the subtraction.
func stageRows(m metricSet, res *pipeline.Result, searchWall time.Duration, parallel int) {
	m.add("pipeline.msv_s", "s", res.MSV.Wall.Seconds())
	m.add("pipeline.vit_s", "s", res.Viterbi.Wall.Seconds())
	m.add("pipeline.fwd_s", "s", res.Forward.Wall.Seconds())
	stages := res.MSV.Wall + res.Viterbi.Wall + res.Forward.Wall
	m.add("pipeline.other_s", "s", (searchWall - stages/time.Duration(parallel)).Seconds())
	m.add("pipeline.msv_pass_frac", "ratio", res.MSV.PassFraction())
	m.add("pipeline.vit_pass_frac", "ratio", res.Viterbi.PassFraction())
}

// outputRows emits the output-side budget rows for one result.
func outputRows(m metricSet, queryName string, res *pipeline.Result) error {
	var buf bytes.Buffer
	d, err := perCall(func() error {
		buf.Reset()
		return pipeline.WriteTblout(&buf, queryName, res)
	})
	if err != nil {
		return err
	}
	m.add("pipeline.tblout_ms", "ms", d.Seconds()*1e3)

	payload := pipeline.EncodeResultPayload(res)
	d, err = perCall(func() error {
		_, err := pipeline.DecodeResultPayload(pipeline.EncodeResultPayload(res))
		return err
	})
	if err != nil {
		return fmt.Errorf("payload codec: %w", err)
	}
	m.add("pipeline.payload_codec_mb_per_s", "MB/s", float64(len(payload))/1e6/d.Seconds())
	return nil
}

// microBudget is how long one micro-benchmark repeats. The ladder has
// about seventy of them and runs in every traced run. Only the tests
// change it.
var microBudget = 60 * time.Millisecond

// perCall times fn repeatedly for about microBudget, after one warm-up
// call, and returns the median duration of one call.
func perCall(fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var durs []float64
	start := time.Now()
	for len(durs) < 3 || (time.Since(start) < microBudget && len(durs) < 10_000) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	d := time.Duration(median(durs))
	if d <= 0 {
		d = 1 // a call below the clock's resolution still took time
	}
	return d, nil
}
