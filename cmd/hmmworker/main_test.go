package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parse builds hmmworker's flags, parses args and vets them.
func parse(args string) (*config, error) {
	fs := flag.NewFlagSet("hmmworker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := newConfig(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, err
	}
	return c, c.vet()
}

// A worker serves the coordinator's batch budget, derived by
// pipeline.Flags as hmmsearch derives it (the same table runs in
// hmmsearch's and hmmserved's tests), and refuses to start without
// one.
func TestStreamBudget(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int64
	}{
		{"-stream 32", 11200},
		{"-stream 32 -targlen 100", 3200},
		{"-stream 32 -batchres 9000", 9000},
		{"-stream 60 -batchres 0 -targlen 350", 21000},
	} {
		c, err := parse(tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if c.run.Stream.BatchResidues != tc.want {
			t.Errorf("%q: budget %d, want %d", tc.args, c.run.Stream.BatchResidues, tc.want)
		}
	}
	const refusal = "a batch residue budget is required: set -batchres, or -stream (with -targlen) to mirror the coordinator"
	for _, args := range []string{"", "-targlen 100", "-stream 0 -batchres 0"} {
		if _, err := parse(args); err == nil || err.Error() != refusal {
			t.Errorf("%q: err = %v, want %q", args, err, refusal)
		}
	}
}
