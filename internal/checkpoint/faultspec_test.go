package checkpoint_test

import (
	"testing"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/faults"
)

// A journal:crash clause becomes the run's CrashPlan; the window
// defaults to after-sync.
func TestParseCrash(t *testing.T) {
	ok := []struct {
		spec string
		want checkpoint.CrashPlan
	}{
		{"journal:crash=3", checkpoint.CrashPlan{After: 3, Window: checkpoint.WindowAfterSync}},
		{"journal:crash=0@before-append", checkpoint.CrashPlan{After: 0, Window: checkpoint.WindowBeforeAppend}},
		{"journal:crash=7@after-append", checkpoint.CrashPlan{After: 7, Window: checkpoint.WindowAfterAppend}},
		{"journal:crash=2@after-sync", checkpoint.CrashPlan{After: 2, Window: checkpoint.WindowAfterSync}},
	}
	for _, tc := range ok {
		plan, err := faults.Parse(tc.spec, 0, 0, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if *plan.Crash != tc.want {
			t.Fatalf("Parse(%q) crash = %+v, want %+v", tc.spec, *plan.Crash, tc.want)
		}
	}
	for _, bad := range []string{"journal:crash=", "journal:crash=x", "journal:crash=-1", "journal:crash=3@mid-append", "journal:crash=3@"} {
		if _, err := faults.Parse(bad, 0, 0, 0); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}
