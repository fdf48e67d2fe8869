package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// A -faults clause that the configured run cannot honour is an error,
// never a silently inert plan.
func TestFaultPlanFailsClosed(t *testing.T) {
	type run struct {
		engine  string
		stream  int
		workers int
		journal string
	}
	single := run{engine: "multigpu", stream: 32}
	cluster := run{stream: 32, workers: 2}
	for _, tc := range []struct {
		spec string
		run  run
		ok   bool
	}{
		{"dev0:dead", single, true},
		{"dev3:dead", single, true},
		{"w1:kill=0,dead=1;coord:kill=3", cluster, true},
		{"journal:crash=3@after-append", run{engine: "multigpu", stream: 32, journal: "run.ckpt"}, true},
		{"journal:crash=3", run{stream: 32, workers: 2, journal: "run.ckpt"}, true},

		// Device faults outside the single-node multigpu streamed path.
		{"dev0:dead", run{engine: "cpu", stream: 32}, false},
		{"dev0:dead", run{engine: "gpu"}, false},
		{"dev0:dead", run{engine: "multigpu"}, false},
		{"dev0:dead", run{engine: "multigpu", stream: 32, workers: 2}, false},
		{"dev0:dead", cluster, false},
		// Worker and coordinator faults without workers.
		{"w0:kill=1", single, false},
		{"coord:kill=3", single, false},
		// A journal crash without a journal.
		{"journal:crash=3", single, false},
		{"journal:crash=3", cluster, false},
		// Indices beyond the configured devices (4) and workers.
		{"dev4:dead", single, false},
		{"w2:kill=0", cluster, false},
	} {
		_, err := faultPlan(tc.spec, 1, tc.run.engine, tc.run.stream, 4, tc.run.workers, tc.run.journal)
		if (err == nil) != tc.ok {
			t.Errorf("faultPlan(%q, %+v): err = %v, want ok=%v", tc.spec, tc.run, err, tc.ok)
		}
	}
}

// parse builds hmmsearch's flags, parses args and vets them.
func parse(args string) (*config, error) {
	fs := flag.NewFlagSet("hmmsearch", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := newConfig(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return nil, err
	}
	return c, c.vet()
}

// A flag the configured run cannot honour is refused, never dropped:
// -null2 everywhere but a cluster, -alignments on whole-database runs
// only, -verify and -batch-timeout on -engine multigpu -stream only.
func TestDroppedFlagsFailClosed(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"-null2", true},
		{"-null2 -engine gpu", true},
		{"-null2 -stream 32", true},
		{"-null2 -engine multigpu -stream 32 -journal run.ckpt", true},
		{"-null2 -stream 32 -cluster 2", false},
		{"-null2 -stream 32 -cluster-workers 127.0.0.1:9101", false},

		{"-alignments", true},
		{"-alignments -engine multigpu", true},
		{"-alignments -stream 32", false},
		{"-alignments -engine multigpu -stream 32", false},
		{"-alignments -stream 32 -cluster 2", false},

		{"-verify dmr -engine multigpu -stream 32", true},
		{"-batch-timeout 5s -engine multigpu -stream 32", true},
		{"-verify off -stream 32 -cluster 2", true},
		{"-verify guards", false},
		{"-verify dmr -engine multigpu", false},
		{"-verify dmr -stream 32", false},
		{"-verify dmr -engine multigpu -stream 32 -cluster 2", false},
		{"-batch-timeout 5s -engine gpu", false},
		{"-batch-timeout 5s -stream 32", false},
		{"-batch-timeout 5s -stream 32 -cluster-workers 127.0.0.1:9101", false},
	} {
		if _, err := parse(tc.args); (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}

// The budget a streamed run batches by, and stamps into its journal
// and handshake, is pipeline.Flags' one derivation; hmmworker and
// hmmserved run the same table.
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
		c, err := parse("-engine multigpu " + tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if c.run.Stream.BatchResidues != tc.want {
			t.Errorf("%q: budget %d, want %d", tc.args, c.run.Stream.BatchResidues, tc.want)
		}
	}
}

// hmmsearch's own flags bind straight into the pipeline structs they
// configure, and the journal clause of -faults into the journal's.
func TestFlagsBindIntoRunConfig(t *testing.T) {
	c, err := parse("-stream 32 -cluster 2 -workers 3 -max-retries 5 -quarantine-after -1 -no-fallback" +
		" -journal run.ckpt -resume -journal-sync 4 -faults journal:crash=3 -cluster-deadline 2s -ha-epoch 7")
	if err != nil {
		t.Fatal(err)
	}
	st, ck, cl := c.run.Stream, c.ckpt, c.cluster
	if c.run.Opts.Workers != 3 || st.Policy.MaxRetries != 5 || st.Policy.QuarantineAfter != -1 || !st.DisableFallback {
		t.Errorf("options %+v, stream config %+v", c.run.Opts, st)
	}
	if ck.Path != "run.ckpt" || !ck.Resume || ck.SyncEvery != 4 || ck.Crash == nil {
		t.Errorf("checkpoint config %+v", ck)
	}
	if cl.BatchDeadline != 2*time.Second || cl.Epoch != 7 {
		t.Errorf("cluster config %+v", cl)
	}
}
