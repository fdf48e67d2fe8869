//go:build smoke

// Package smoke is the end-to-end smoke runner: it builds the
// commands once and drives them, as separate processes over files and
// localhost sockets, through six legs — trace, chaos, crash, cluster,
// serve and ha. Every leg pins the paper's central claim (the
// accelerated, faulted, crashed, clustered, served and failed-over
// runs report exactly the hits of the plain run) plus the counters,
// exit statuses and drains that show the recovery machinery did the
// work.
//
//	go test -tags smoke ./internal/smoke                      # all legs
//	go test -tags smoke ./internal/smoke -run TestSmoke/crash # one leg
//
// A/B mode: -smoke.parent DIR names a directory holding hmmsearch,
// hmmsearch-race, hmmworker and hmmserved built from another commit
// (normally the parent). Each leg then runs a second time with those
// binaries on the same inputs, and fails unless every tblout is
// byte-identical, every .prom file has the same series, and every
// pinned counter and exit status is equal. The crash and ha legs run a
// third, crossed pass: a journal crashed (or a primary killed) by the
// other commit's hmmsearch is resumed (or taken over) by this one's.
//
// -smoke.out DIR keeps every artifact under DIR/<leg>/<side>/.
package smoke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	parentDir = flag.String("smoke.parent", "", "directory of hmmsearch, hmmsearch-race, hmmworker and hmmserved built at another commit; every leg also runs them and compares")
	outFlag   = flag.String("smoke.out", "", "keep every leg's artifacts under this directory (default: a temporary directory, removed on exit)")
)

var (
	// binDir holds the commands built from this checkout.
	binDir string
	// outDir is the artifact root; model and db are the shared inputs.
	outDir, model, db string
)

// commands are built once by TestMain; hmmsearch is built a second
// time with the race detector as hmmsearch-race.
var commands = []string{"hmmgen", "hmmsearch", "hmmworker", "hmmserved", "hmmload", "tracecheck"}

func TestMain(m *testing.M) {
	flag.Parse()
	tmp, err := os.MkdirTemp("", "hmmer3gpu-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := setup(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "smoke setup:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(tmp)
	os.Exit(code)
}

func setup(tmp string) error {
	binDir = filepath.Join(tmp, "bin")
	for _, c := range commands {
		if err := gobuild(filepath.Join(binDir, c), "hmmer3gpu/cmd/"+c); err != nil {
			return err
		}
	}
	if err := gobuild(filepath.Join(binDir, "hmmsearch-race"), "-race", "hmmer3gpu/cmd/hmmsearch"); err != nil {
		return err
	}
	if *parentDir != "" {
		for _, b := range []string{"hmmsearch", "hmmsearch-race", "hmmworker", "hmmserved"} {
			if _, err := os.Stat(filepath.Join(*parentDir, b)); err != nil {
				return fmt.Errorf("-smoke.parent: %w", err)
			}
		}
	}
	outDir = *outFlag
	if outDir == "" {
		outDir = filepath.Join(tmp, "out")
	}
	in := filepath.Join(outDir, "inputs")
	cmd := exec.Command(filepath.Join(binDir, "hmmgen"), "-m", "100", "-db", "swissprot", "-scale", "0.0002", "-out", in)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("hmmgen: %v\n%s", err, out)
	}
	model = filepath.Join(in, "query-M100.hmm")
	db = filepath.Join(in, "swissprot-like.fasta")
	return nil
}

func gobuild(out string, args ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", out}, args...)...)
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", strings.Join(args, " "), err, b)
	}
	return nil
}

// bins names the binaries under test; the tools around them (hmmgen,
// hmmload, tracecheck) always come from this checkout.
type bins struct{ search, searchRace, worker, served string }

func binsIn(dir string) bins {
	return bins{
		search:     filepath.Join(dir, "hmmsearch"),
		searchRace: filepath.Join(dir, "hmmsearch-race"),
		worker:     filepath.Join(dir, "hmmworker"),
		served:     filepath.Join(dir, "hmmserved"),
	}
}

// leg is one smoke scenario. cross, when set, is the leg's crossed A/B
// pass: which of the other commit's binaries it swaps in.
type leg struct {
	name  string
	run   func(r *run)
	cross func(this, other bins) bins
}

var legs = []leg{
	{name: "trace", run: traceLeg},
	{name: "chaos", run: chaosLeg},
	{name: "crash", run: crashLeg, cross: crashedByOther},
	{name: "cluster", run: clusterLeg},
	{name: "serve", run: serveLeg},
	{name: "ha", run: haLeg, cross: crashedByOther},
}

// crashedByOther runs the other commit's plain hmmsearch — the run
// that crashes, or the primary that is killed — and this commit's
// race-detector hmmsearch, the run that resumes or takes over.
func crashedByOther(this, other bins) bins {
	return bins{search: other.search, searchRace: this.searchRace, worker: this.worker, served: this.served}
}

func TestSmoke(t *testing.T) {
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			start := time.Now()
			this := binsIn(binDir)
			change := runLeg(t, l, "change", this)
			if *parentDir == "" {
				t.Logf("%s: %s", l.name, time.Since(start).Round(time.Millisecond))
				return
			}
			other := binsIn(*parentDir)
			compare(t, l.name, change, runLeg(t, l, "parent", other))
			if l.cross != nil {
				compare(t, l.name, change, runLeg(t, l, "cross", l.cross(this, other)))
			}
			t.Logf("%s (A/B): %s", l.name, time.Since(start).Round(time.Millisecond))
		})
	}
}

// run is one side's pass through a leg: its binaries, its artifact
// directory, and what it pinned for the A/B comparison.
type run struct {
	t    *testing.T
	leg  string
	side string
	bin  bins
	dir  string
	// pins maps "<file or step> <series or 'exit'>" to the pinned value.
	pins map[string]string
	// workers lists the worker addresses in start order; .prom series
	// name them as w<i> so two sides compare despite ephemeral ports.
	workers []string
}

func runLeg(t *testing.T, l leg, side string, b bins) *run {
	dir := filepath.Join(outDir, l.name, side)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	r := &run{leg: l.name, side: side, bin: b, dir: dir, pins: map[string]string{}}
	// Each side is a subtest, so a side that stops at a fatal check
	// still leaves the other sides to run and be compared.
	t.Run(side, func(t *testing.T) {
		r.t = t
		l.run(r)
	})
	return r
}

func (r *run) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s/%s: %s", r.leg, r.side, fmt.Sprintf(format, args...))
}

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// exec runs one command to completion, its combined output in
// <step>.log, and returns its exit status.
func (r *run) exec(step, bin string, args ...string) int {
	r.t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if werr := os.WriteFile(r.path(step+".log"), out, 0o644); werr != nil {
		r.t.Fatal(werr)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		r.fatalf("%s: %v", step, err)
	}
	return 0
}

// want runs one command and fails unless it exits with status want;
// the status is pinned for the A/B comparison.
func (r *run) want(status int, step, bin string, args ...string) {
	r.t.Helper()
	got := r.exec(step, bin, args...)
	if got != status {
		r.fatalf("%s exited %d, want %d\n%s", step, got, status, r.tail(step+".log"))
	}
	r.pins[step+" exit"] = fmt.Sprint(got)
}

// tail returns the last lines of an artifact, for failure messages.
func (r *run) tail(name string) string {
	b, _ := os.ReadFile(r.path(name))
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// search runs hmmsearch on the shared inputs with the given flags.
func (r *run) search(status int, step string, race bool, flags ...string) {
	r.t.Helper()
	bin := r.bin.search
	if race {
		bin = r.bin.searchRace
	}
	r.want(status, step, bin, append(flags, model, db)...)
}

// same fails unless two of the run's artifacts are byte-identical.
func (r *run) same(a, b string) {
	r.t.Helper()
	if d := diffFiles(r.path(a), r.path(b)); d != "" {
		r.fatalf("%s and %s differ: %s", a, b, d)
	}
}

// diffFiles describes the first difference between two files ("" when
// they are byte-identical).
func diffFiles(a, b string) string {
	x, err := os.ReadFile(a)
	if err != nil {
		return err.Error()
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return err.Error()
	}
	if bytes.Equal(x, y) {
		return ""
	}
	xl, yl := strings.Split(string(x), "\n"), strings.Split(string(y), "\n")
	for i := 0; i < len(xl) || i < len(yl); i++ {
		var p, q string
		if i < len(xl) {
			p = xl[i]
		}
		if i < len(yl) {
			q = yl[i]
		}
		if p != q {
			return fmt.Sprintf("line %d: %q vs %q", i+1, p, q)
		}
	}
	return "trailing bytes differ"
}

// tracecheck validates artifacts with the tree's own validators.
func (r *run) tracecheck(args ...string) {
	r.t.Helper()
	out, err := exec.Command(filepath.Join(binDir, "tracecheck"), args...).CombinedOutput()
	if err != nil {
		r.fatalf("tracecheck %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// require checks that a metrics file carries every named series.
func (r *run) require(prom string, series ...string) {
	r.t.Helper()
	r.tracecheck("-metrics", r.path(prom), "-require", strings.Join(series, ","))
}

// readProm parses a Prometheus text file into series → value.
func readProm(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		m[line[:i]] = line[i+1:]
	}
	return m, nil
}

// metric returns one series of a metrics file ("" when absent).
func (r *run) metric(prom, series string) string {
	r.t.Helper()
	m, err := readProm(r.path(prom))
	if err != nil {
		r.fatalf("%v", err)
	}
	return m[series]
}

// pin fails unless a series of a metrics file has exactly value want,
// and records it for the A/B comparison.
func (r *run) pin(prom, series, want string) {
	r.t.Helper()
	if got := r.metric(prom, series); got != want {
		r.fatalf("%s: %s = %q, want %s", prom, series, got, want)
	}
	r.pins[prom+" "+r.named(series)] = want
}

// positive fails unless a series of a metrics file is a positive
// count, and records that it was.
func (r *run) positive(prom, series string) {
	r.t.Helper()
	got := r.metric(prom, series)
	if got == "" || got == "0" || strings.HasPrefix(got, "-") {
		r.fatalf("%s: %s = %q, want a positive count", prom, series, got)
	}
	r.pins[prom+" "+r.named(series)] = "> 0"
}

// named rewrites worker addresses in a series to their start order.
func (r *run) named(s string) string {
	for i, a := range r.workers {
		s = strings.ReplaceAll(s, a, fmt.Sprintf("w%d", i))
	}
	return s
}

// proc is a background process whose output lines are kept for
// matching and copied to <step>.log.
type proc struct {
	r    *run
	step string
	cmd  *exec.Cmd
	log  *os.File

	mu    sync.Mutex
	lines []string
	part  []byte
	done  chan struct{}
	code  int
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log.Write(b)
	p.part = append(p.part, b...)
	for {
		i := bytes.IndexByte(p.part, '\n')
		if i < 0 {
			return len(b), nil
		}
		p.lines = append(p.lines, string(p.part[:i]))
		p.part = p.part[i+1:]
	}
}

// start launches a background process; the leg's cleanup kills it if
// the leg ends first.
func (r *run) start(step, bin string, args ...string) *proc {
	r.t.Helper()
	f, err := os.Create(r.path(step + ".log"))
	if err != nil {
		r.t.Fatal(err)
	}
	p := &proc{r: r, step: step, log: f, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		f.Close()
		r.fatalf("%s: %v", step, err)
	}
	go func() {
		err := p.cmd.Wait()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			p.code = ee.ExitCode()
		} else if err != nil {
			p.code = -1
		}
		f.Close()
		close(p.done)
	}()
	r.t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			p.cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}

// waitLine waits for an output line matching re and returns its
// submatches.
func (p *proc) waitLine(re string, timeout time.Duration) []string {
	p.r.t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(timeout)
	for {
		exited := false
		select {
		case <-p.done:
			exited = true
		default:
		}
		for _, l := range p.output() {
			if m := rx.FindStringSubmatch(l); m != nil {
				return m
			}
		}
		if exited {
			p.r.fatalf("%s exited %d before printing /%s/\n%s", p.step, p.code, re, p.r.tail(p.step+".log"))
		}
		if time.Now().After(deadline) {
			p.r.fatalf("%s printed no /%s/ within %s\n%s", p.step, re, timeout, p.r.tail(p.step+".log"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// output returns the lines the process has printed so far, the last
// one possibly unterminated.
func (p *proc) output() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(append([]string(nil), p.lines...), string(p.part))
}

// wait waits for the process to exit and returns its status.
func (p *proc) wait(timeout time.Duration) int {
	p.r.t.Helper()
	select {
	case <-p.done:
		return p.code
	case <-time.After(timeout):
		p.r.fatalf("%s still running after %s\n%s", p.step, timeout, p.r.tail(p.step+".log"))
	}
	return 0
}

// exits waits for the process and fails unless it exited with status
// want; the status is pinned for the A/B comparison.
func (p *proc) exits(want int, timeout time.Duration) {
	p.r.t.Helper()
	if got := p.wait(timeout); got != want {
		p.r.fatalf("%s exited %d, want %d\n%s", p.step, got, want, p.r.tail(p.step+".log"))
	}
	p.r.pins[p.step+" exit"] = fmt.Sprint(want)
}

func (p *proc) signal(sig os.Signal) {
	p.r.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.r.fatalf("signalling %s: %v", p.step, err)
	}
}

// startWorkers starts n hmmworker nodes on ephemeral localhost ports,
// each with capacity 1 and one fast-mode device, and keeps their
// addresses in r.workers. With metrics, node i flushes its metrics to
// worker-<i>.prom when it drains.
func (r *run) startWorkers(n int, metrics bool) []*proc {
	r.t.Helper()
	var ps []*proc
	for i := 0; i < n; i++ {
		args := []string{"-listen", "127.0.0.1:0", "-capacity", "1", "-devices", "1", "-sim", "fast", "-stream", "32"}
		if metrics {
			args = append(args, "-metrics", r.path(fmt.Sprintf("worker-%d.prom", i)))
		}
		ps = append(ps, r.start(fmt.Sprintf("worker-%d", i), r.bin.worker, append(args, model)...))
	}
	r.workers = nil
	for _, p := range ps {
		m := p.waitLine(`listening on (\S+)`, 10*time.Second)
		r.workers = append(r.workers, m[1])
	}
	return ps
}

// stopAll sends SIGTERM to every process (a drain) and waits for them
// to exit.
func stopAll(ps []*proc) {
	for _, p := range ps {
		p.signal(syscall.SIGTERM)
	}
	for _, p := range ps {
		p.wait(20 * time.Second)
	}
}

// startServed starts hmmserved on an ephemeral localhost port over the
// shared database and returns it with its base URL.
func (r *run) startServed(step string, flags ...string) (*proc, string) {
	r.t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-db", "swiss=" + db, "-stream", "32", "-devices", "2", "-sim", "fast"}, flags...)
	p := r.start(step, r.bin.served, args...)
	m := p.waitLine(`^hmmserved: listening on (\S+)`, 20*time.Second)
	return p, "http://" + m[1]
}

var client = &http.Client{Timeout: 2 * time.Minute}

// query posts the shared model to /search and writes the response
// body to out; it fails on any non-200 status and returns the headers.
func (r *run) query(base, params, out string) http.Header {
	r.t.Helper()
	body, err := os.ReadFile(model)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := client.Post(base+"/search?"+params, "text/plain", bytes.NewReader(body))
	if err != nil {
		r.fatalf("POST /search?%s: %v", params, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fatalf("POST /search?%s: %v", params, err)
	}
	if resp.StatusCode != http.StatusOK {
		r.fatalf("POST /search?%s: %s\n%s", params, resp.Status, b)
	}
	if err := os.WriteFile(r.path(out), b, 0o644); err != nil {
		r.t.Fatal(err)
	}
	return resp.Header
}

// get fetches a URL and fails unless it answers 200.
func (r *run) get(url string) string {
	r.t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		r.fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		r.fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// served fails unless the service's /metrics carries a series line
// matching re.
func (r *run) served(base, re string) {
	r.t.Helper()
	if !regexp.MustCompile(`(?m)` + re).MatchString(r.get(base + "/metrics")) {
		r.fatalf("%s/metrics has no line matching /%s/", base, re)
	}
	r.pins["metrics "+re] = "matched"
}

// traceLeg: a streamed multi-device search emits a well-formed Chrome
// trace and a metrics file with simulator, pipeline and scheduler
// counters; a JSONL trace validates too; and the device and host
// engines write byte-identical tables. The traced run is cycle
// accurate, since the simulator counters are under test.
func traceLeg(r *run) {
	r.search(0, "traced", false, "-engine", "multigpu", "-stream", "32", "-devices", "2",
		"-trace", r.path("run.chrome.json"), "-metrics", r.path("run.prom"))
	r.search(0, "gpu", false, "-engine", "gpu",
		"-trace", r.path("run.jsonl"), "-traceformat", "jsonl", "-tblout", r.path("gpu.tbl"))
	r.search(0, "cpu", false, "-engine", "cpu", "-tblout", r.path("cpu.tbl"))
	r.same("cpu.tbl", "gpu.tbl")
	r.tracecheck("-format", "chrome", "-metrics", r.path("run.prom"),
		"-require", "hmmer_simt_,hmmer_pipeline_,hmmer_sched_", r.path("run.chrome.json"))
	r.tracecheck("-format", "jsonl", r.path("run.jsonl"))
}

// chaosLeg: the same streamed search clean (cycle accurate), under a
// seeded device fault schedule (race detector), with every device dead
// (host fallback) and under two forced flip bursts repaired by DMR
// (race detector). Every faulted run is fast mode, so the tables also
// prove fast mode result-identical under faults, quarantine and repair.
func chaosLeg(r *run) {
	stream := []string{"-engine", "multigpu", "-stream", "32"}
	r.search(0, "clean", false, append(stream, "-devices", "4", "-tblout", r.path("clean.tbl"))...)
	r.search(0, "faulted", true, append(stream, "-devices", "4", "-sim", "fast",
		"-faults", "dev0:at=0,at=2;dev1:at=0;dev2:dead", "-fault-seed", "7", "-max-retries", "8",
		"-metrics", r.path("faulted.prom"), "-tblout", r.path("faulted.tbl"))...)
	r.search(0, "alldead", false, append(stream, "-devices", "4", "-sim", "fast",
		"-faults", "dev0:dead;dev1:dead;dev2:dead;dev3:dead",
		"-metrics", r.path("alldead.prom"), "-tblout", r.path("alldead.tbl"))...)
	r.search(0, "sdc", true, append(stream, "-devices", "1", "-sim", "fast",
		"-faults", "dev0:flip@launch=0,flip@launch=3", "-fault-seed", "7", "-verify", "dmr",
		"-metrics", r.path("sdc.prom"), "-tblout", r.path("sdc.tbl"))...)
	for _, f := range []string{"faulted.tbl", "alldead.tbl", "sdc.tbl"} {
		r.same("clean.tbl", f)
	}
	r.require("faulted.prom", "hmmer_sched_retries_total", "hmmer_sched_device_quarantined")
	r.require("alldead.prom", "hmmer_sched_fallback_batches_total", "hmmer_sched_device_quarantined")
	r.require("sdc.prom", "hmmer_sched_sdc_detected_total", "hmmer_sched_sdc_reruns_total")
	r.pin("sdc.prom", "hmmer_sched_sdc_detected_total", "2")
	r.pin("sdc.prom", "hmmer_sched_sdc_reruns_total", "2")
}

// crashLeg: a journaled streamed search is crashed in the after-append
// window (exit status 3, a torn half-record on disk) and resumed under
// the race detector; a second journaled run is drained by SIGINT and
// resumed. Both resumed tables match the uninterrupted cycle-accurate
// run. With fsync per append, a crash at the fourth append leaves
// exactly 3 replayable records and 1 torn tail.
func crashLeg(r *run) {
	fast := []string{"-engine", "multigpu", "-stream", "32", "-devices", "2", "-sim", "fast"}
	r.search(0, "clean", false, "-engine", "multigpu", "-stream", "32", "-devices", "2",
		"-tblout", r.path("clean.tbl"))
	r.search(3, "crashed", false, append(fast, "-journal", r.path("run.ckpt"),
		"-faults", "journal:crash=3@after-append", "-tblout", r.path("crashed.tbl"))...)
	r.search(0, "resumed", true, append(fast, "-journal", r.path("run.ckpt"), "-resume",
		"-metrics", r.path("resumed.prom"), "-tblout", r.path("resumed.tbl"))...)

	// SIGINT once the drain handler is installed — it is before the
	// journal exists — then resume whatever the drain journaled.
	drain := r.start("drain", r.bin.search, append(fast, "-journal", r.path("drain.ckpt"), model, db)...)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if fi, err := os.Stat(r.path("drain.ckpt")); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			r.fatalf("drain run created no journal\n%s", r.tail("drain.log"))
		}
	}
	drain.signal(os.Interrupt)
	drain.exits(0, time.Minute)
	r.search(0, "drained", false, append(fast, "-journal", r.path("drain.ckpt"), "-resume",
		"-tblout", r.path("drained.tbl"))...)

	r.same("clean.tbl", "resumed.tbl")
	r.same("clean.tbl", "drained.tbl")
	r.require("resumed.prom", "hmmer_ckpt_batches_journaled_total",
		"hmmer_ckpt_batches_replayed_total", "hmmer_ckpt_batches_dropped_tail_total")
	r.pin("resumed.prom", "hmmer_ckpt_batches_replayed_total", "3")
	r.pin("resumed.prom", "hmmer_ckpt_batches_dropped_tail_total", "1")
}

// clusterLeg: one coordinator shards the stream across three hmmworker
// processes over localhost TCP — with a seeded worker kill (race
// detector), and across a coordinator crash and resume. The killed
// worker has capacity 1, so the kill reclaims exactly one in-flight
// batch, and exactly-once forbids a second requeue. The workers drain
// on SIGTERM and flush metrics that count the batches each served.
func clusterLeg(r *run) {
	r.search(0, "clean", false, "-engine", "multigpu", "-stream", "32", "-devices", "2",
		"-tblout", r.path("clean.tbl"))
	workers := r.startWorkers(3, true)
	cluster := []string{"-stream", "32", "-sim", "fast", "-cluster-workers", strings.Join(r.workers, ",")}
	r.search(0, "faulted", true, append(cluster, "-faults", "w0:kill=0,dead=1", "-fault-seed", "7",
		"-metrics", r.path("faulted.prom"), "-tblout", r.path("faulted.tbl"))...)
	r.search(3, "crashed", false, append(cluster, "-journal", r.path("run.ckpt"),
		"-faults", "journal:crash=3", "-tblout", r.path("crashed.tbl"))...)
	r.search(0, "resumed", true, append(cluster, "-journal", r.path("run.ckpt"), "-resume",
		"-metrics", r.path("resumed.prom"), "-tblout", r.path("resumed.tbl"))...)
	stopAll(workers)

	for i := range workers {
		prom := fmt.Sprintf("worker-%d.prom", i)
		if b, _ := os.ReadFile(r.path(prom)); !bytes.Contains(b, []byte("hmmer_worker_batch_seconds_bucket")) {
			r.fatalf("%s has no hmmer_worker_batch_seconds histogram", prom)
		}
		r.positive(prom, `hmmer_worker_batches_total{engine="gpu"}`)
	}
	r.same("clean.tbl", "faulted.tbl")
	r.same("clean.tbl", "resumed.tbl")
	r.require("faulted.prom", "hmmer_cluster_batches_total", "hmmer_cluster_requeues_total",
		"hmmer_cluster_worker_quarantined")
	r.pin("faulted.prom", "hmmer_cluster_requeues_total", "1")
	r.pin("faulted.prom", `hmmer_cluster_worker_quarantined{worker="`+r.workers[0]+`"}`, "1")
	r.pin("faulted.prom", "hmmer_cluster_fenced_commits_total", "0")
	r.require("resumed.prom", "hmmer_cluster_batches_total", "hmmer_ckpt_batches_replayed_total")
}

// serveLeg: hmmserved answers byte-identical to the one-shot CLI —
// fresh, from the result cache, and degraded to the host CPU on an
// all-dead device pool; it sheds a 16-client overload with 429s and no
// 5xx while the admitted p99 stays within twice the uncontended p99;
// and it drains cleanly on SIGTERM ("0 lost", exit 0).
func serveLeg(r *run) {
	r.search(0, "ref", false, "-engine", "multigpu", "-stream", "32", "-devices", "2", "-sim", "fast",
		"-tblout", r.path("ref.tbl"))
	srv, base := r.startServed("hmmserved", "-max-queue", "1", "-drain-journal", r.path("drain.journal"))
	r.query(base, "db=swiss", "served.tbl")
	r.same("ref.tbl", "served.tbl")
	if h := r.query(base, "db=swiss", "cached.tbl"); !strings.EqualFold(h.Get("X-Cache"), "hit") {
		r.fatalf("repeat query X-Cache = %q, want hit", h.Get("X-Cache"))
	}
	r.same("ref.tbl", "cached.tbl")
	r.served(base, `^hmmer_serve_cache_hits_total [1-9]`)

	uncontended := r.load(base, "uncontended", "-clients", "1")
	// 16 clients at 4 qps each offer ~64 qps against a ~15 qps pool.
	// Paced rather than closed-loop, so the shed path does not starve
	// the host and inflate the admitted latencies asserted on.
	overload := r.load(base, "overload", "-clients", "16", "-qps", "4")
	if overload.Shed < 1 {
		r.fatalf("overload shed %d queries, want some 429s", overload.Shed)
	}
	r.pins["overload shed"] = "> 0"
	r.t.Logf("%s/%s: p99 uncontended %.3fs, overloaded %.3fs", r.leg, r.side, uncontended.P99, overload.P99)
	// Not fatal: the leg still fails, but the drain and degraded checks
	// below run and report too.
	if overload.P99 > 2*uncontended.P99 {
		r.t.Errorf("%s/%s: admitted p99 %.3fs exceeds twice the uncontended %.3fs",
			r.leg, r.side, overload.P99, uncontended.P99)
	}

	if h := r.get(base + "/healthz"); !strings.Contains(h, `"status":"ok"`) {
		r.fatalf("/healthz = %s, want status ok", h)
	}
	r.get(base + "/readyz")
	srv.signal(syscall.SIGTERM)
	srv.exits(0, 20*time.Second)
	srv.waitLine(`0 lost`, time.Second)

	faulted, base := r.startServed("faulted", "-faults", "dev0:dead;dev1:dead", "-cordon-after", "1", "-devs-per-query", "2")
	if h := r.query(base, "db=swiss", "degraded.tbl"); h.Get("X-Degraded") == "" {
		r.fatalf("all-dead pool answered without X-Degraded")
	}
	r.same("ref.tbl", "degraded.tbl")
	stopAll([]*proc{faulted})
}

// loadSummary is the part of hmmload -json the serve leg asserts on.
type loadSummary struct {
	Shed int     `json:"shed_429"`
	P99  float64 `json:"latency_p99_s"`
}

// load offers 10 s of uncached load and fails on any 5xx or transport
// error.
func (r *run) load(base, step string, flags ...string) loadSummary {
	r.t.Helper()
	args := append([]string{"-url", base, "-model", model, "-db", "swiss",
		"-duration", "10s", "-nocache", "-strict", "-json"}, flags...)
	r.want(0, step, filepath.Join(binDir, "hmmload"), args...)
	b, err := os.ReadFile(r.path(step + ".log"))
	if err != nil {
		r.t.Fatal(err)
	}
	var s loadSummary
	if err := json.Unmarshal(b[bytes.IndexByte(b, '{'):], &s); err != nil {
		r.fatalf("%s: %v\n%s", step, err, b)
	}
	return s
}

// haLeg covers both single points of failure. (1) The primary
// coordinator is killed at its fourth assignment (exit status 3); a hot
// standby (race detector) waiting on the journal's lease resumes the
// journal, dials the same three workers at epoch 2 and finishes
// byte-identical to the single-node run, with one failover and no
// double-merged batch. (2) hmmserved is SIGTERMed with queries
// queued, journals them, and on restart replays each one
// byte-identically before it reports ready.
func haLeg(r *run) {
	r.search(0, "ref", false, "-engine", "multigpu", "-stream", "32", "-devices", "2", "-sim", "fast",
		"-tblout", r.path("ref.tbl"))
	workers := r.startWorkers(3, false)
	cluster := []string{"-stream", "32", "-sim", "fast", "-cluster-workers", strings.Join(r.workers, ","),
		"-journal", r.path("run.ckpt")}
	// The primary takes the journal's flock before streaming; the
	// kernel frees it when the injected kill exits the process, and
	// that release is the standby's takeover signal.
	primary := r.start("primary", r.bin.search, append(cluster, "-faults", "coord:kill=3",
		"-tblout", r.path("primary.tbl"), model, db)...)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if fi, err := os.Stat(r.path("run.ckpt")); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			r.fatalf("primary created no journal\n%s", r.tail("primary.log"))
		}
	}
	// Started only once the journal exists, i.e. once the primary
	// holds the flock: a standby that wins leadership with no journal
	// refuses to run.
	standby := r.start("standby", r.bin.searchRace, append(cluster, "-ha-standby",
		"-metrics", r.path("takeover.prom"), "-tblout", r.path("takeover.tbl"), model, db)...)
	primary.exits(3, time.Minute)
	standby.exits(0, 2*time.Minute)
	standby.waitLine(`Failover: took over at epoch 2`, time.Second)
	stopAll(workers)

	r.same("ref.tbl", "takeover.tbl")
	r.require("takeover.prom", "hmmer_cluster_batches_total", "hmmer_cluster_failovers_total",
		"hmmer_cluster_standby_tailed_total")
	r.pin("takeover.prom", "hmmer_cluster_failovers_total", "1")
	r.pin("takeover.prom", "hmmer_cluster_epoch", "2")
	r.pin("takeover.prom", "hmmer_cluster_fenced_commits_total", "0")

	// With one slot and cache=off, a burst of four must queue; drain
	// once /healthz reports queued waiters, and the drain refuses them
	// into the journal.
	admit := []string{"-max-concurrent", "1", "-max-queue", "3", "-drain-journal", r.path("drain.journal")}
	first, base := r.startServed("served-1", admit...)
	first.waitLine(`^hmmserved: ready`, 20*time.Second)
	body, err := os.ReadFile(model)
	if err != nil {
		r.t.Fatal(err)
	}
	var burst sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 1; i <= 4; i++ {
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				fmt.Sprintf("%s/search?db=swiss&cache=off&tenant=t%d", base, i), bytes.NewReader(body))
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	depth := regexp.MustCompile(`"depth": *([0-9]+)`)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := depth.FindStringSubmatch(r.get(base + "/healthz")); m != nil && m[1] != "0" {
			break
		}
	}
	first.signal(syscall.SIGTERM)
	first.wait(20 * time.Second)
	burst.Wait()
	first.waitLine(`drained: [0-9]+ in-flight completed, [1-9][0-9]* queued journaled`, time.Second)
	if fi, err := os.Stat(r.path("drain.journal")); err != nil || fi.Size() == 0 {
		r.fatalf("drain journal empty or missing (%v)", err)
	}

	second, base := r.startServed("served-2", append(admit, "-replay-out", r.path("replayed"))...)
	second.waitLine(`^hmmserved: ready`, time.Minute)
	// The replay line must precede readiness: /readyz stays 503 until
	// every journaled query is answered.
	replayed := regexp.MustCompile(`^hmmserved: replayed [1-9][0-9]* journaled queries \(0 failed\)`)
	ok := false
	for _, l := range second.output() {
		if strings.HasPrefix(l, "hmmserved: ready") {
			break
		}
		ok = ok || replayed.MatchString(l)
	}
	if !ok {
		r.fatalf("no successful replay line before readiness\n%s", r.tail("served-2.log"))
	}
	tables, _ := filepath.Glob(r.path("replayed/replay-*.tbl"))
	if len(tables) == 0 {
		r.fatalf("restart wrote no replayed tables")
	}
	for _, f := range tables {
		r.same("ref.tbl", filepath.Join("replayed", filepath.Base(f)))
	}
	r.get(base + "/readyz")
	r.served(base, `^hmmer_serve_replayed_total [1-9]`)
	r.served(base, `^hmmer_serve_replay_failed_total 0`)
	stopAll([]*proc{second})
}

// compare fails unless two sides of a leg wrote byte-identical tables,
// metrics files with the same series, and the same pins. It runs
// whatever either side's own checks found, so a side that failed is
// still compared as far as it got. Replayed
// service tables are left out: how many queries a drain catches queued
// is timing, and each side already diffs every one it wrote.
func compare(t *testing.T, leg string, a, b *run) {
	t.Helper()
	differ := false
	errorf := func(format string, args ...any) {
		t.Helper()
		differ = true
		t.Errorf(format, args...)
	}
	files := func(r *run, ext string) []string {
		var out []string
		filepath.WalkDir(r.dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() == "replayed" {
				return filepath.SkipDir
			}
			if err == nil && !d.IsDir() && filepath.Ext(p) == ext {
				rel, _ := filepath.Rel(r.dir, p)
				out = append(out, rel)
			}
			return nil
		})
		return out
	}
	tables := files(a, ".tbl")
	if got := files(b, ".tbl"); strings.Join(got, " ") != strings.Join(tables, " ") {
		errorf("%s: %s wrote tables %v, %s wrote %v", leg, a.side, tables, b.side, got)
	}
	for _, f := range tables {
		if d := diffFiles(a.path(f), b.path(f)); d != "" {
			errorf("%s: %s differs between %s and %s: %s", leg, f, a.side, b.side, d)
		}
	}
	for _, f := range files(a, ".prom") {
		x, y := seriesOf(a, f), seriesOf(b, f)
		var only []string
		for k := range x {
			if !y[k] {
				only = append(only, a.side+" only: "+k)
			}
		}
		for k := range y {
			if !x[k] {
				only = append(only, b.side+" only: "+k)
			}
		}
		if len(only) > 0 {
			sort.Strings(only)
			errorf("%s: %s series differ:\n%s", leg, f, strings.Join(only, "\n"))
		}
	}
	for k, v := range a.pins {
		if b.pins[k] != v {
			errorf("%s: %s is %q under %s, %q under %s", leg, k, v, a.side, b.pins[k], b.side)
		}
	}
	for k, v := range b.pins {
		if _, ok := a.pins[k]; !ok {
			errorf("%s: %s pinned %q under %s only", leg, k, v, b.side)
		}
	}
	if !differ {
		t.Logf("%s: %s and %s agree on %d tables and %d pins", leg, a.side, b.side, len(tables), len(a.pins))
	}
}

// seriesOf returns the series of one of a run's metrics files, worker
// addresses named by start order.
func seriesOf(r *run, prom string) map[string]bool {
	m, err := readProm(r.path(prom))
	if err != nil {
		r.fatalf("%v", err)
	}
	out := map[string]bool{}
	for k := range m {
		out[r.named(k)] = true
	}
	return out
}
