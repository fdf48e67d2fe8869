package main

import "testing"

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
