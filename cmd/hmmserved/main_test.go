package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parse builds hmmserved's flags, parses args and vets them.
func parse(args string) (*config, error) {
	fs := flag.NewFlagSet("hmmserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := newConfig(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, err
	}
	return c, c.vet()
}

// The server chunks its resident databases by the budget pipeline.Flags
// derives for hmmsearch (the same table runs in hmmsearch's and
// hmmworker's tests), and refuses to start without -stream or
// -batchres.
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
		c, err := parse("-db swiss=db.fasta " + tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if c.srv.BatchResidues != tc.want || c.srv.TargetLen != c.run.TargetLen {
			t.Errorf("%q: budget %d, target length %d; want %d, %d",
				tc.args, c.srv.BatchResidues, c.srv.TargetLen, tc.want, c.run.TargetLen)
		}
	}
	const refusal = "set -stream or -batchres (the chunking must match the one-shot CLI)"
	for _, args := range []string{"", "-targlen 100", "-stream 0 -batchres 0"} {
		if _, err := parse("-db swiss=db.fasta " + args); err == nil || err.Error() != refusal {
			t.Errorf("%q: err = %v, want %q", args, err, refusal)
		}
	}
}
