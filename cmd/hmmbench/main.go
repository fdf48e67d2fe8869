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
	"hmmer3gpu/internal/obsio"
	"hmmer3gpu/internal/pipeline"
)

// config is hmmbench's command line: -workers, -sim and the
// observability flags it shares with hmmsearch, plus its own.
type config struct {
	run                       *pipeline.Flags
	obs                       obsio.Flags
	experiment, sizes, csvDir string
	quick                     bool
	seed                      int64
}

// newConfig declares hmmbench's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{run: pipeline.NewFlags()}
	c.run.Register(fs, "workers", "sim")
	c.obs.Register(fs, "trace", "traceformat", "kprof", "cpuprofile", "memprofile")
	fs.StringVar(&c.experiment, "experiment", "all", "fig1|fig9|fig10|fig11|pfam|ablation|extension|sensitivity|stream|all")
	fs.BoolVar(&c.quick, "quick", false, "use reduced workloads (seconds instead of minutes)")
	fs.Int64Var(&c.seed, "seed", 0, "override the workload seed")
	fs.StringVar(&c.sizes, "sizes", "", "comma-separated model sizes (default: the paper's sweep)")
	fs.StringVar(&c.csvDir, "csv", "", "also write fig9/fig10/fig11 CSV files into this directory")
	return c
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()
	if err := c.run.Resolve(); err != nil {
		fatalf("%v", err)
	}

	cfg := bench.DefaultConfig()
	if c.quick {
		cfg = bench.QuickConfig()
	}
	if c.seed != 0 {
		cfg.Seed = c.seed
	}
	cfg.Workers, cfg.Mode = c.run.Opts.Workers, c.run.Mode
	sk, err := c.obs.Open()
	if err != nil {
		fatalf("%v", err)
	}
	// The trace carries the spans of the pipeline-driven experiments,
	// the kernel profile every launch.
	cfg.Trace, cfg.Prof = sk.Tracer, sk.Collector
	defer func() {
		if err := sk.Flush(func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}); err != nil {
			fatalf("%v", err)
		}
	}()
	if c.sizes != "" {
		cfg.Sizes = nil
		for _, tok := range strings.Split(c.sizes, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || m < 1 {
				fatalf("bad -sizes entry %q", tok)
			}
			cfg.Sizes = append(cfg.Sizes, m)
		}
	}

	if c.csvDir != "" {
		fmt.Printf("==> csv export to %s\n", c.csvDir)
		if err := bench.ExportCSV(cfg, c.csvDir, os.Stdout); err != nil {
			fatalf("csv export: %v", err)
		}
		fmt.Println()
		return
	}

	ran := false
	for _, e := range []struct {
		name string
		run  func() error
	}{
		{"fig1", func() error { _, err := bench.Fig1(cfg, os.Stdout); return err }},
		{"fig9", func() error { _, err := bench.Fig9(cfg, os.Stdout); return err }},
		{"fig10", func() error { _, err := bench.Fig10(cfg, os.Stdout); return err }},
		{"fig11", func() error { _, err := bench.Fig11(cfg, os.Stdout); return err }},
		{"pfam", func() error { _, err := bench.Pfam(cfg, os.Stdout); return err }},
		{"ablation", func() error { _, err := bench.Ablations(cfg, os.Stdout); return err }},
		{"extension", func() error { _, err := bench.SpillStudy(cfg, os.Stdout); return err }},
		{"sensitivity", func() error { _, err := bench.Sensitivity(cfg, os.Stdout); return err }},
		{"stream", func() error { _, err := bench.StreamScaling(cfg, os.Stdout); return err }},
	} {
		if c.experiment != "all" && c.experiment != e.name {
			continue
		}
		fmt.Printf("==> %s\n", e.name)
		if err := e.run(); err != nil {
			fatalf("%s: %v", e.name, err)
		}
		fmt.Println()
		ran = true
	}
	if !ran {
		fatalf("unknown experiment %q (want fig1|fig9|fig10|fig11|pfam|ablation|extension|sensitivity|stream|all)", c.experiment)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmbench: "+format+"\n", args...)
	os.Exit(1)
}
