package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// golden drives the real command path against the checked-in profile
// and compares byte-for-byte with the golden rendering.
func golden(t *testing.T, goldenFile string, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", goldenFile)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (re-run with -update to refresh):\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.String(), string(want))
	}
}

func TestReportGolden(t *testing.T) {
	golden(t, "report.golden", "testdata/profile.json")
}

func TestFlameGolden(t *testing.T) {
	golden(t, "flame.golden", "-flame", "testdata/profile.json")
}

// TestReportFlagsCollapse pins the acceptance criterion's CI hook: the
// report on a sweep spanning the shared-config crossover must contain
// a grep-able "occupancy collapse" note naming the bracketing sizes.
func TestReportFlagsCollapse(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"testdata/profile.json"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "occupancy collapse") ||
		!strings.Contains(out, "M=960") || !strings.Contains(out, "M=1056") {
		t.Errorf("report does not flag the 960->1056 collapse:\n%s", out)
	}
}

func TestRejectsGarbage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong/v0","launches":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad schema accepted")
	}
}
