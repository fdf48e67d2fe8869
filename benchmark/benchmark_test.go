package main

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"testing"
	"time"

	"hmmer3gpu/internal/alphabet"
)

func testConfig(t *testing.T) runConfig {
	t.Helper()
	return runConfig{seed: 7, window: time.Millisecond, tracedOps: 1, sz: testSizes, scratch: t.TempDir()}
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec()
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestEveryDeclaredMetricIsEmittedOnce runs every workload at reduced
// size, untraced and traced, and the ladder, and holds what they emit
// to what BENCHMARK.json declares: every declared metric present with
// its unit, nothing undeclared, and no per-layer metric emitted by both
// a workload and the ladder.
func TestEveryDeclaredMetricIsEmittedOnce(t *testing.T) {
	old := microBudget
	microBudget = time.Millisecond
	defer func() { microBudget = old }()

	spec := loadSpec(t)
	cfg := testConfig(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	ladder, err := runLadder(cfg)
	if err != nil {
		t.Fatal(err)
	}

	match := func(what string, declared []specMetric, emitted metricSet) {
		t.Helper()
		want := make(map[string]string, len(declared))
		for _, d := range declared {
			if _, dup := want[d.Name]; dup {
				t.Errorf("%s: %s declared twice", what, d.Name)
			}
			want[d.Name] = d.Unit
		}
		for name, s := range emitted {
			unit, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s: emits undeclared metric %s", what, name)
			case unit != s.Unit:
				t.Errorf("%s: %s emitted in %q, declared in %q", what, name, s.Unit, unit)
			case len(s.Vals) == 0:
				t.Errorf("%s: %s has no samples", what, name)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s: declared metric %s was not emitted", what, name)
		}
	}

	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		plain, err := w.run(cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if plain.failed != 0 || plain.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, plain.failed, plain.attempted, plain.failures)
		}
		match(w.name+" end-to-end", spec.EndToEnd, plain.metrics)

		traced, err := w.run(cfg, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if traced.failed != 0 || traced.attempted == 0 {
			t.Errorf("%s traced: %d of %d ops failed: %v", w.name, traced.failed, traced.attempted, traced.failures)
		}
		if traced.trace == nil || len(traced.trace.Spans) == 0 {
			t.Errorf("%s traced: no spans recorded", w.name)
		}
		for name := range traced.metrics {
			if _, both := ladder[name]; both {
				t.Errorf("%s: %s is emitted by the workload and by the ladder", w.name, name)
			}
		}
		all := metricSet{}
		all.merge(traced.metrics)
		all.merge(ladder)
		match(w.name+" per-layer", spec.PerLayer, all)
	}
}

// TestBenchmarkSpecMeetsTheContract checks the limits the driver
// refuses a BENCHMARK.json over.
func TestBenchmarkSpecMeetsTheContract(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *specMetric
	for i, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared in s, lower is better: %+v", setup)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestFlippedOutputByteTripsTheGate: one wrong byte in an op's table is
// a failed op, and a workload with a failed op fails the command.
func TestFlippedOutputByteTripsTheGate(t *testing.T) {
	abc := alphabet.New()
	cfg := testConfig(t)
	q, err := newQuery("gate", cfg.sz.oneshotM, abc, 1)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := newTarget(swissprotSeqs(40, 2), q.h, abc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oneshotOp(abc, q.text, tg.fasta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutput("same", ref.out, ref.out); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	bad := append([]byte(nil), ref.out...)
	bad[len(bad)/2] ^= 1
	err = sameOutput("flipped", bad, ref.out)
	if err == nil {
		t.Fatal("a flipped byte passed the gate")
	}

	res := newResult()
	res.check(nil)
	res.check(err)
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", res.attempted, res.failed)
	}
	rep := newReport(1, 1, 1)
	if rep.addWorkload("oneshot_cpu", res, nil, io.Discard) {
		t.Error("a workload with a failed op passed")
	}
	if got := rep.Workloads["oneshot_cpu"].FailedFraction; got != 0.5 {
		t.Errorf("failed_fraction %v, want 0.5", got)
	}
}

// TestSelfTime checks span arithmetic on a hand-built tree: a parent's
// self time excludes what its children cover, overlapping children are
// not subtracted twice, and a child overrunning its parent is clipped.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: noSpan, Op: 1, Layer: layerOther, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Op: 1, Layer: "a", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Op: 1, Layer: "b", Start: ms(30), End: ms(60)},  // overlaps span 1
		{ID: 3, Parent: 0, Op: 1, Layer: "a", Start: ms(90), End: ms(120)}, // overruns the root
		{ID: 4, Parent: 1, Op: 1, Layer: "c", Start: ms(15), End: ms(25)},
		{ID: 5, Parent: noSpan, Op: 2, Layer: layerOther, Start: ms(200), End: ms(210)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: ms(40), // 100 less [10,60] and [90,100]
		1: ms(20), // 30 less its child's 10
		2: ms(30),
		3: ms(30),
		4: ms(10),
		5: ms(10),
	} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans, 1)
	if layers["a"] != ms(50) || layers["b"] != ms(30) || layers["c"] != ms(10) || layers[layerOther] != ms(40) {
		t.Errorf("layer self times %v", layers)
	}
	if got := busy(spans, 1, "a"); got != ms(60) {
		t.Errorf("busy(a) = %v, want 60ms", got)
	}
	b := budget(spans, []int{1})
	if b.wall != 0.1 || math.Abs(b.gapFrac-0.4) > 1e-12 || b.layers["a"] != 0.05 {
		t.Errorf("budget wall %v gap %v layers %v, want 0.1, 0.4 and a=0.05", b.wall, b.gapFrac, b.layers)
	}

	// A nil recorder is tracing off.
	var rec *recorder
	rec.end(rec.start(1, noSpan, "x", "y"))
	if rec.snapshot() != nil {
		t.Error("a nil recorder recorded")
	}
}

// TestInputsFollowTheSeed: one seed gives identical bytes, two seeds
// give different inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	abc := alphabet.New()
	gen := func(seed int64) (model, fasta []byte) {
		q, err := newQuery("q", 24, abc, subSeed(seed, seedOneshot, 0))
		if err != nil {
			t.Fatal(err)
		}
		tg, err := newTarget(swissprotSeqs(30, subSeed(seed, seedOneshot, 1)), q.h, abc)
		if err != nil {
			t.Fatal(err)
		}
		return q.text, tg.fasta
	}
	m1, f1 := gen(1)
	m1b, f1b := gen(1)
	m2, f2 := gen(2)
	if !bytes.Equal(m1, m1b) || !bytes.Equal(f1, f1b) {
		t.Error("one seed gave two different inputs")
	}
	if bytes.Equal(m1, m2) || bytes.Equal(f1, f2) {
		t.Error("two seeds gave the same input")
	}
	if a, b := schedule(1, 1, 4, 16), schedule(2, 1, 4, 16); equalSchedules(a, b) {
		t.Error("two seeds gave the same request schedule")
	}
	if a, b := schedule(1, 1, 4, 16), schedule(1, 1, 4, 16); !equalSchedules(a, b) {
		t.Error("one seed gave two request schedules")
	}
}

func equalSchedules(a, b [serveClients][]request) bool {
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

// TestJudge covers the three verdicts of -compare.
func TestJudge(t *testing.T) {
	tight := func(v float64) summary {
		return summary{Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02}
	}
	wide := func(v float64) summary {
		return summary{Median: v, Q1: v * 0.9, Q3: v * 1.1, Min: v * 0.8, Max: v * 1.2}
	}
	for _, tc := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"same", tight(1), tight(1.02), "lower", verdictOK},
		{"slower", tight(1), tight(1.2), "lower", verdictRegression},
		{"faster", tight(1), tight(0.7), "lower", verdictOK},
		{"fewer per second", tight(100), tight(80), "higher", verdictRegression},
		{"more per second", tight(100), tight(130), "higher", verdictOK},
		{"noisy", wide(1), wide(1.02), "lower", verdictUnresolved},
		{"noisy but every run better", wide(1), tight(0.5), "lower", verdictOK},
	} {
		if got, _ := judge(tc.a, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
