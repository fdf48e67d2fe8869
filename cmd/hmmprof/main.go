// Command hmmprof renders kernel-profile artifacts collected with
// hmmsearch/hmmbench -kprof (see internal/kernprof):
//
//	hmmprof profile.json             full text report: per-kernel
//	                                 counters, occupancy table with
//	                                 collapse notes, stall attribution,
//	                                 block-cycle percentiles
//	hmmprof -occupancy profile.json  occupancy table only
//	hmmprof -flame profile.json      folded stacks of the stall
//	                                 attribution (flamegraph.pl /
//	                                 speedscope input)
//
// Multiple profile files merge into one report in argument order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hmmer3gpu/internal/kernprof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hmmprof: %v\n", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments and output, so the golden
// test drives the real command path.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmmprof", flag.ContinueOnError)
	flame := fs.Bool("flame", false, "emit folded stall stacks instead of the report")
	occupancy := fs.Bool("occupancy", false, "emit the occupancy table only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("usage: hmmprof [-flame|-occupancy] <profile.json>...")
	}

	merged := &kernprof.Profile{Schema: kernprof.Schema}
	for _, path := range fs.Args() {
		p, err := kernprof.ReadFile(path)
		if err != nil {
			return err
		}
		merged.Merge(p)
	}
	switch {
	case *flame:
		return merged.WriteFlame(stdout)
	case *occupancy:
		return merged.WriteOccupancy(stdout)
	default:
		return merged.WriteReport(stdout)
	}
}
