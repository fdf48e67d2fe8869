// Command hmmbench regenerates the paper's tables and figures on the
// simulated devices:
//
//	hmmbench -experiment fig1      pipeline pass rates & time split (Fig. 1)
//	hmmbench -experiment fig9      per-stage speedups & occupancy (Fig. 9)
//	hmmbench -experiment fig10     combined speedup, single K40 (Fig. 10)
//	hmmbench -experiment fig11     combined speedup, 4x GTX 580 (Fig. 11)
//	hmmbench -experiment pfam      Pfam model-size statistics (§IV)
//	hmmbench -experiment ablation  §III design-choice ablations
//	hmmbench -experiment stream    streamed multi-device scaling (dynamic scheduler)
//	hmmbench -experiment all       everything above
//
// The -sim flag selects the simulator's execution mode: "cycles" (the
// default) runs the full cycle-accurate cost model; "fast" runs the
// same kernels functionally with accounting skipped. Results are
// byte-identical; the figure experiments' modelled columns are only
// meaningful under -sim cycles. Wall-clock is measured by the benchmark
// of record (benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hmmer3gpu/internal/bench"
	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/simt"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig1|fig9|fig10|fig11|pfam|ablation|extension|sensitivity|stream|all")
		quick      = flag.Bool("quick", false, "use reduced workloads (seconds instead of minutes)")
		seed       = flag.Int64("seed", 0, "override the workload seed")
		sizes      = flag.String("sizes", "", "comma-separated model sizes (default: the paper's sweep)")
		workers    = flag.Int("workers", 0, "host worker goroutines (0 = GOMAXPROCS)")
		csvDir     = flag.String("csv", "", "also write fig9/fig10/fig11 CSV files into this directory")
		trace      = flag.String("trace", "", "write a span timeline of the pipeline-driven experiments to this file")
		traceFmt   = flag.String("traceformat", "chrome", "trace file format: chrome|jsonl")
		simMode    = flag.String("sim", "cycles", "simulator mode: cycles (cycle-accurate) or fast (functional)")
		kprof      = flag.String("kprof", "", "write a kernel-grained profile of every launch to this file as JSON; render with hmmprof")
		cpuprof    = flag.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) to this file")
		memprof    = flag.String("memprofile", "", "write a host heap profile (runtime/pprof) to this file on exit")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	mode, err := simt.ParseMode(*simMode)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Mode = mode
	stopProf, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()
	if *kprof != "" {
		cfg.Prof = kernprof.NewCollector()
		defer flushKprof(cfg.Prof, *kprof)
	}
	if *trace != "" {
		if *traceFmt != "chrome" && *traceFmt != "jsonl" {
			fatalf("unknown -traceformat %q (want chrome or jsonl)", *traceFmt)
		}
		cfg.Trace = obs.New()
		defer flushTrace(cfg.Trace, *trace, *traceFmt)
	}
	if *sizes != "" {
		cfg.Sizes = nil
		for _, tok := range strings.Split(*sizes, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || m < 1 {
				fatalf("bad -sizes entry %q", tok)
			}
			cfg.Sizes = append(cfg.Sizes, m)
		}
	}

	run := func(name string, f func() error) {
		fmt.Printf("==> %s\n", name)
		if err := f(); err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	if *csvDir != "" {
		fmt.Printf("==> csv export to %s\n", *csvDir)
		if err := bench.ExportCSV(cfg, *csvDir, os.Stdout); err != nil {
			fatalf("csv export: %v", err)
		}
		fmt.Println()
		return
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false
	if want("fig1") {
		run("fig1", func() error { _, err := bench.Fig1(cfg, os.Stdout); return err })
		ran = true
	}
	if want("fig9") {
		run("fig9", func() error { _, err := bench.Fig9(cfg, os.Stdout); return err })
		ran = true
	}
	if want("fig10") {
		run("fig10", func() error { _, err := bench.Fig10(cfg, os.Stdout); return err })
		ran = true
	}
	if want("fig11") {
		run("fig11", func() error { _, err := bench.Fig11(cfg, os.Stdout); return err })
		ran = true
	}
	if want("pfam") {
		run("pfam", func() error { _, err := bench.Pfam(cfg, os.Stdout); return err })
		ran = true
	}
	if want("ablation") {
		run("ablation", func() error { _, err := bench.Ablations(cfg, os.Stdout); return err })
		ran = true
	}
	if want("extension") {
		run("extension", func() error { _, err := bench.SpillStudy(cfg, os.Stdout); return err })
		ran = true
	}
	if want("sensitivity") {
		run("sensitivity", func() error { _, err := bench.Sensitivity(cfg, os.Stdout); return err })
		ran = true
	}
	if want("stream") {
		run("stream", func() error { _, err := bench.StreamScaling(cfg, os.Stdout); return err })
		ran = true
	}
	if !ran {
		fatalf("unknown experiment %q (want fig1|fig9|fig10|fig11|pfam|ablation|extension|sensitivity|stream|all)", *experiment)
	}
}

// flushKprof writes the accumulated kernel profile on exit.
func flushKprof(c *kernprof.Collector, path string) {
	prof := c.Profile()
	if err := prof.WriteFile(path); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("kernel profile (%d launches) written to %s; render with: hmmprof %s\n",
		len(prof.Launches), path, path)
}

// flushTrace writes the experiments' accumulated spans on exit.
func flushTrace(tr *obs.Tracer, path, format string) {
	fh, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if format == "jsonl" {
		err = tr.WriteJSONL(fh)
	} else {
		err = tr.WriteChromeTrace(fh)
	}
	if err == nil {
		err = fh.Close()
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("trace (%s, %d spans) written to %s\n", format, len(tr.Spans()), path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmbench: "+format+"\n", args...)
	os.Exit(1)
}
