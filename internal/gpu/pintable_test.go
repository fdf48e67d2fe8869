package gpu

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the pin tables under testdata/")

// pinTable is a test's pins in run order: one "<pin> <counter> <value>"
// line per nonzero value, and "<pin> refused" for a refused plan.
type pinTable []string

func (p *pinTable) add(pin, counter string, v any) {
	if s := fmt.Sprint(v); s != "0" {
		*p = append(*p, strings.TrimSpace(pin+" "+counter+" "+s))
	}
}

// check holds p to testdata/<test>.golden, which -update rewrites first.
func (p pinTable) check(t *testing.T) {
	path := "testdata/" + t.Name() + ".golden"
	if *update && os.WriteFile(path, []byte(strings.Join(p, "\n")+"\n"), 0o644) != nil {
		t.Fatal("cannot write ", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i, d := range [][2][]string{{p, want}, {want, p}} {
		for _, line := range slices.DeleteFunc(slices.Clone(d[0]), func(l string) bool { return slices.Contains(d[1], l) }) {
			t.Errorf("%s: %q is only in the %s", path, line, []string{"run", "table"}[i])
		}
	}
}
