package pipeline

import (
	"flag"
	"strings"
	"testing"

	"hmmer3gpu/internal/workload"
)

// parseFlags registers the named shared flags, parses args and
// resolves them, as a command's main does.
func parseFlags(t *testing.T, args string, names ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := NewFlags()
	f.Register(fs, names...)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(); err != nil {
		t.Fatal(err)
	}
	return f
}

// One derivation gives the batch budget: -batchres when set, else
// -stream × -targlen. The commands' own tests show it reaches
// hmmsearch, hmmworker and hmmserved.
func TestFlagsBudget(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int64
	}{
		{"", 0},
		{"-targlen 100", 0},
		{"-stream 32", 32 * 350},
		{"-stream 32 -targlen 100", 3200},
		{"-stream 32 -batchres 9000", 9000},
		{"-batchres 9000 -targlen 100", 9000},
		{"-stream 60 -batchres 0", 21000},
	} {
		f := parseFlags(t, tc.args, "stream", "batchres", "targlen")
		if f.Budget() != tc.want || f.Stream.BatchResidues != tc.want {
			t.Errorf("%q: Budget() = %d, Stream.BatchResidues = %d; want %d",
				tc.args, f.Budget(), f.Stream.BatchResidues, tc.want)
		}
	}
}

// A worker given the coordinator's batching flags, in any spelling that
// derives the same budget and length, builds the coordinator's
// fingerprint; one that derives another budget or length is refused at
// the handshake. Both sides register the groups their commands do.
func TestMirroredWorkerFingerprint(t *testing.T) {
	h, err := workload.Model("fp", 40, abc, 40)
	if err != nil {
		t.Fatal(err)
	}
	pipelines := map[int]*Pipeline{}
	fingerprint := func(f *Flags) string {
		pl := pipelines[f.TargetLen]
		if pl == nil {
			if pl, err = New(h, f.TargetLen, f.Opts); err != nil {
				t.Fatal(err)
			}
			pipelines[f.TargetLen] = pl
		}
		fp := pl.Fingerprint(f.Stream)
		return string(fp[:])
	}
	coordinator := parseFlags(t, "-stream 32 -targlen 200 -max-retries 3 -verify guards",
		"stream", "batchres", "targlen", "workers", "mem", "sim",
		"faults", "fault-seed", "max-retries", "quarantine-after", "verify")
	want := fingerprint(coordinator)
	for _, tc := range []struct {
		args string
		same bool
	}{
		{"-stream 32 -targlen 200", true},
		{"-batchres 6400 -targlen 200", true},
		{"-stream 64 -batchres 6400 -targlen 200", true},
		{"-stream 16 -targlen 200", false},
		{"-batchres 6400", false},
		{"-stream 32", false},
	} {
		worker := parseFlags(t, tc.args, "stream", "batchres", "targlen", "workers", "mem", "sim")
		if same := fingerprint(worker) == want; same != tc.same {
			t.Errorf("worker %q: fingerprint matches the coordinator's: %v, want %v", tc.args, same, tc.same)
		}
	}
}
