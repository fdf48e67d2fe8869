// Command benchmark is the repo's benchmark of record: four workloads,
// their end-to-end metrics with tracing off, a traced pass that gives
// each workload's time budget, and a per-layer ladder of
// micro-measurements. See README.md.
//
//	go run -C benchmark . -seed 1 -out r.json        everything, one command
//	go run -C benchmark . -compare a.json b.json     two result files against the bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   the driver's form
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and end with the driver's one-line JSON result (default: all four, their traced pass and the ladder)")
		seed    = fs.Int64("seed", 1, "every input is generated from this seed")
		seconds = fs.Int("seconds", 15, "how long each workload's timed loop measures")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics (traced pass and ladder)")
		out     = fs.String("out", "", "write the result as JSON to this file, and trace_<workload>.json beside it")
		compare = fs.Bool("compare", false, "compare two result files, or two comma-separated sets of them, against BENCHMARK.json's bounds: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json[,a2.json...] b.json[,b2.json...]")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name -trace 0|1] [-seed n] [-seconds s] [-out file]")
		return 2
	}

	// At most two cores and two clients, whatever the host has: the
	// numbers are for comparing commits on one small machine.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	// The journal and other files a workload must really write go to a
	// directory of this run's own inside the checkout, removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, tracedOps: 3, sz: fullSizes, scratch: dir}

	rep := newReport(*seed, *seconds, procs)
	var code int
	if *name != "" {
		code = runOne(cfg, *name, *trace == 1, rep, stdout, stderr)
	} else {
		code = runAll(cfg, rep, stdout, stderr)
	}
	if *out != "" && len(rep.Workloads) > 0 {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runAll is the one command: every workload untraced, then traced,
// then the ladder; prints every metric; exits nonzero if any output
// was wrong or a serial workload's time budget does not add up.
func runAll(cfg runConfig, rep *report, stdout, stderr io.Writer) int {
	ok := true
	for _, w := range workloads {
		fmt.Fprintf(stderr, "benchmark: %s: measuring for %v\n", w.name, cfg.window)
		plain, err := w.run(cfg, false)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchmark: %s: traced pass\n", w.name)
		traced, err := w.run(cfg, true)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s traced: %v\n", w.name, err)
			return 1
		}
		ok = rep.addWorkload(w.name, plain, traced, stderr) && ok
	}
	fmt.Fprintln(stderr, "benchmark: ladder")
	ladder, err := runLadder(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.addLadder(ladder)
	rep.print(stdout)
	if !ok {
		return 1
	}
	return 0
}

// runOne is the driver's form: one workload, end-to-end metrics with
// tracing off or per-layer metrics with it on, and the result as the
// last line of standard output.
func runOne(cfg runConfig, name string, traced bool, rep *report, stdout, stderr io.Writer) int {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: no workload %q\n", name)
		return 2
	}
	// The driver's traced runs are as short as its untraced ones: two
	// traced ops where the one command takes three.
	cfg.tracedOps = 2
	res, err := w.run(cfg, traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	ok := true
	if traced {
		ladder, err := runLadder(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		ok = rep.addWorkload(name, nil, res, stderr)
		rep.addLadder(ladder)
		res.metrics.merge(ladder)
	} else {
		ok = rep.addWorkload(name, res, nil, stderr)
	}
	rep.print(stdout)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for name, s := range res.metrics {
		line.Metrics[name] = value{Value: median(s.Vals), Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !ok {
		return 1
	}
	return 0
}

// report is the result file: what ran, where, and every metric's
// median, quartiles and sample count.
type report struct {
	Schema     string                     `json:"schema"`
	Rev        string                     `json:"rev"`
	Host       string                     `json:"host"`
	GoVersion  string                     `json:"go_version"`
	NumCPU     int                        `json:"num_cpu"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	// Ladder holds the per-layer rows that do not depend on a workload.
	Ladder map[string]summary `json:"ladder,omitempty"`

	order  []string
	traces []*traceDump
}

type workloadReport struct {
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	FailedFraction float64            `json:"failed_fraction"`
	EndToEnd       map[string]summary `json:"end_to_end,omitempty"`
	PerLayer       map[string]summary `json:"per_layer,omitempty"`
}

const reportSchema = "hmmer3gpu-benchmark/v1"

func newReport(seed int64, seconds, procs int) *report {
	host, _ := os.Hostname() // a label only
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return &report{Schema: reportSchema, Rev: rev, Host: host, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, Seed: seed, Seconds: seconds,
		Workloads: map[string]*workloadReport{}}
}

// budgetGapMax is how much of a serial workload's traced op may lie
// outside every layer call before the time budget counts as not adding
// up.
const budgetGapMax = 0.05

// addWorkload folds one workload's untraced and traced results (either
// may be nil) into the report and says whether it passed: no failed op,
// and for the serially driven workloads a budget that sums to the wall.
func (r *report) addWorkload(name string, plain, traced *workloadResult, stderr io.Writer) bool {
	wr := &workloadReport{}
	r.Workloads[name] = wr
	r.order = append(r.order, name)
	ok := true
	for _, res := range []*workloadResult{plain, traced} {
		if res == nil {
			continue
		}
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "benchmark: %s: FAILED op: %s\n", name, f)
		}
	}
	if wr.Attempted == 0 || wr.Failed > 0 {
		ok = false
	}
	if wr.Attempted > 0 {
		wr.FailedFraction = float64(wr.Failed) / float64(wr.Attempted)
	}
	if plain != nil {
		wr.EndToEnd = summarize(plain.metrics)
	}
	if traced != nil {
		wr.PerLayer = summarize(traced.metrics)
		if traced.trace != nil {
			r.traces = append(r.traces, traced.trace)
		}
		if gap, has := wr.PerLayer["trace.budget_gap_frac"]; has && (name == "oneshot_cpu" || name == "device_cycles") && gap.Median > budgetGapMax {
			fmt.Fprintf(stderr, "benchmark: %s: %.1f%% of the traced op is inside no layer call (limit %.0f%%)\n",
				name, gap.Median*100, budgetGapMax*100)
			ok = false
		}
	}
	return ok
}

func (r *report) addLadder(m metricSet) { r.Ladder = summarize(m) }

func summarize(m metricSet) map[string]summary {
	out := make(map[string]summary, len(m))
	for name, s := range m {
		out[name] = s.summarize()
	}
	return out
}

// print writes every metric by name with its unit, median, quartiles
// and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# hmmer3gpu benchmark: rev %s, seed %d, %d s per workload, host %s, %s, GOMAXPROCS %d of %d CPUs\n",
		r.Rev, r.Seed, r.Seconds, r.Host, r.GoVersion, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "%-15s %-42s %-8s %14s %14s %14s %5s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	row := func(workload, name string, s summary) {
		fmt.Fprintf(w, "%-15s %-42s %-8s %14.6g %14.6g %14.6g %5d\n", workload, name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	rows := func(workload string, ms map[string]summary) {
		for _, name := range sortedKeys(ms) {
			row(workload, name, ms[name])
		}
	}
	for _, name := range r.order {
		wr := r.Workloads[name]
		rows(name, wr.EndToEnd)
		f := wr.FailedFraction
		row(name, "failed_fraction", summary{Unit: "ratio", Median: f, Q1: f, Q3: f, N: wr.Attempted})
		rows(name, wr.PerLayer)
	}
	rows("ladder", r.Ladder)
}

// write saves the report, and each traced workload's spans and budget
// beside it.
func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	for _, t := range r.traces {
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(path), "trace_"+t.Workload+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
