package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is BENCHMARK.json: the declared metrics with their
// direction and, for the end-to-end ones, the bound by which they may
// worsen before a change counts as a regression.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// readSpec finds BENCHMARK.json from the repo root (a built binary) or
// from this directory (go run -C benchmark).
func readSpec() (*benchmarkSpec, error) {
	var lastErr error
	for _, c := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(c)
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, lastErr
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "regression"
	// verdictUnresolved: the spread between either side's quartiles is
	// wider than the bound, so the medians cannot show "unchanged".
	verdictUnresolved = "unresolved"
	verdictChanged    = "changed" // an exact metric that differs
)

// judge classifies b against the base a. worse is how far b's median
// moved in the bad direction as a share of a's.
func judge(a, b summary, better string, bound float64) (verdict string, worse float64) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	bBetterEverywhere := b.Max < a.Min
	if better == "higher" {
		worse = -worse
		bBetterEverywhere = b.Min > a.Max
	}
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case spread > bound && !bBetterEverywhere:
		return verdictUnresolved, worse
	case worse > bound:
		return verdictRegression, worse
	}
	return verdictOK, worse
}

// side is one side of a comparison: one result file, or a set of runs
// of one commit. With one file a metric's samples are the ops of that
// run; with several they are the runs' medians, which is how the driver
// takes its spreads.
type side struct {
	seeds     []int64
	rev       string
	workloads map[string]*workloadReport
	ladder    map[string]summary
}

func readSide(paths string) (*side, error) {
	var reports []*report
	for _, p := range strings.Split(paths, ",") {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	sd := &side{rev: reports[0].Rev, workloads: map[string]*workloadReport{}}
	for _, r := range reports {
		sd.seeds = append(sd.seeds, r.Seed)
	}
	sort.Slice(sd.seeds, func(i, j int) bool { return sd.seeds[i] < sd.seeds[j] })
	if len(reports) == 1 {
		sd.workloads, sd.ladder = reports[0].Workloads, reports[0].Ladder
		return sd, nil
	}

	// Several runs: each metric's samples are the runs' medians.
	medians := func(into metricSet, from map[string]summary) {
		for name, s := range from {
			into.add(name, s.Unit, s.Median)
		}
	}
	ladder := metricSet{}
	e2e, perLayer := map[string]metricSet{}, map[string]metricSet{}
	for _, r := range reports {
		medians(ladder, r.Ladder)
		for name, w := range r.Workloads {
			wr := sd.workloads[name]
			if wr == nil {
				wr = &workloadReport{}
				sd.workloads[name], e2e[name], perLayer[name] = wr, metricSet{}, metricSet{}
			}
			wr.Attempted += w.Attempted
			wr.Failed += w.Failed
			medians(e2e[name], w.EndToEnd)
			medians(perLayer[name], w.PerLayer)
		}
	}
	sd.ladder = summarize(ladder)
	for name, wr := range sd.workloads {
		wr.EndToEnd, wr.PerLayer = summarize(e2e[name]), summarize(perLayer[name])
	}
	return sd, nil
}

func (sd *side) sameSeeds(other *side) bool {
	if len(sd.seeds) != len(other.seeds) {
		return false
	}
	for i := range sd.seeds {
		if sd.seeds[i] != other.seeds[i] {
			return false
		}
	}
	return true
}

// runCompare prints, per workload and end-to-end metric, both medians
// with their quartiles, the ratio with its base, and the verdict; then
// every exact metric that differs between two sides of the same seeds.
// Each side is one result file or a comma-separated set of them. It
// exits nonzero unless everything is ok.
func runCompare(aPaths, bPaths string, stdout, stderr io.Writer) int {
	spec, err := readSpec()
	if err == nil {
		var a, b *side
		if a, err = readSide(aPaths); err == nil {
			if b, err = readSide(bPaths); err == nil {
				return compareSides(spec, a, b, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func compareSides(spec *benchmarkSpec, a, b *side, w io.Writer) int {
	fmt.Fprintf(w, "# base a: rev %s, %d run(s), seeds %v; b: rev %s, %d run(s), seeds %v; ratio is b/a\n",
		a.rev, len(a.seeds), a.seeds, b.rev, len(b.seeds), b.seeds)
	fmt.Fprintf(w, "%-15s %-18s %-8s %36s %36s %9s %7s  %s\n", "workload", "metric", "unit",
		"a median [q1, q3]", "b median [q1, q3]", "b/a", "bound", "verdict")
	bad := 0
	exactSeeds := a.sameSeeds(b)
	show := func(s summary) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3) }
	for _, wl := range spec.Workloads {
		wa, wb := a.workloads[wl.Name], b.workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, md := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[md.Name]
			sb, okB := wb.EndToEnd[md.Name]
			if !okA || !okB || md.Bound == nil {
				continue
			}
			verdict, _ := judge(sa, sb, md.Better, *md.Bound)
			// Simulated time is a count in disguise: one seed, one value.
			if md.Name == "modelled_gcups" && exactSeeds && sa.Median != sb.Median {
				verdict = verdictChanged
			}
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-18s %-8s %36s %36s %9.4f %7.2f  %s\n", wl.Name, md.Name, sa.Unit,
				show(sa), show(sb), sb.Median/sa.Median, *md.Bound, verdict)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			bad++
			fmt.Fprintf(w, "%-15s %-18s failed ops: a %d of %d, b %d of %d  %s\n", wl.Name, "failed_fraction",
				wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdictRegression)
		}
	}
	if exactSeeds {
		exact := func(scope string, ma, mb map[string]summary) {
			for _, name := range sortedKeys(ma) {
				sa, sb := ma[name], mb[name]
				if sa.Unit == "count" && sb.Unit == "count" && sa.Median != sb.Median {
					bad++
					fmt.Fprintf(w, "%-15s %-42s count a %.9g, b %.9g  %s\n", scope, name, sa.Median, sb.Median, verdictChanged)
				}
			}
		}
		exact("ladder", a.ladder, b.ladder)
		for _, wl := range spec.Workloads {
			if wa, wb := a.workloads[wl.Name], b.workloads[wl.Name]; wa != nil && wb != nil {
				exact(wl.Name, wa.PerLayer, wb.PerLayer)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "# %d comparison(s) not ok\n", bad)
		return 1
	}
	fmt.Fprintln(w, "# all comparisons ok")
	return 0
}
