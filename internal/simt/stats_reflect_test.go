package simt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hmmer3gpu/internal/obs"
)

// TestKernelStatsAddCoversEveryField sets each field of the addend to
// a distinct value and checks Add propagated all of them — the drift
// that would otherwise silently drop a new counter from aggregation.
func TestKernelStatsAddCoversEveryField(t *testing.T) {
	var base, other KernelStats
	ov := reflect.ValueOf(&other).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("KernelStats.%s is %s; the aggregation contract assumes int64 counters",
				ov.Type().Field(i).Name, ov.Field(i).Kind())
		}
		ov.Field(i).SetInt(int64(1000 + i))
	}

	base.Add(&other)
	base.Add(&other)
	bv := reflect.ValueOf(base)
	for i := 0; i < bv.NumField(); i++ {
		want := 2 * int64(1000+i)
		if got := bv.Field(i).Int(); got != want {
			t.Errorf("Add dropped KernelStats.%s: got %d after two adds, want %d",
				bv.Type().Field(i).Name, got, want)
		}
	}
}

// TestKernelStatsStringCoversEveryField flips each field individually
// and requires the rendering to change, so String cannot omit a
// counter.
func TestKernelStatsStringCoversEveryField(t *testing.T) {
	zero := (&KernelStats{}).String()
	typ := reflect.TypeOf(KernelStats{})
	for i := 0; i < typ.NumField(); i++ {
		var s KernelStats
		reflect.ValueOf(&s).Elem().Field(i).SetInt(987654321)
		if s.String() == zero {
			t.Errorf("String does not render KernelStats.%s", typ.Field(i).Name)
		}
	}
}

// TestEachCounterWalksEveryField checks the one counter walk yields
// every field exactly once, in declaration order, under its snake_case
// name.
func TestEachCounterWalksEveryField(t *testing.T) {
	var s KernelStats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(10 + i))
	}
	var names []string
	s.EachCounter(func(name string, v int64) {
		i := len(names)
		if i >= sv.NumField() {
			t.Fatalf("walk yielded %s past the struct's %d fields", name, sv.NumField())
		}
		if field := sv.Type().Field(i).Name; v != int64(10+i) || name != snakeCase(field) {
			t.Errorf("walk step %d yielded %s = %d, want KernelStats.%s = %d", i, name, v, field, 10+i)
		}
		names = append(names, name)
	})
	if len(names) != sv.NumField() {
		t.Fatalf("walk yielded %d counters, KernelStats has %d fields", len(names), sv.NumField())
	}
	for field, want := range map[string]string{
		"ALUOps":                 "alu_ops",
		"WarpsExecuted":          "warps_executed",
		"BankConflictReplays":    "bank_conflict_replays",
		"GlobalLoadTransactions": "global_load_transactions",
	} {
		if got := names[fieldIndex(t, field)]; got != want {
			t.Errorf("KernelStats.%s walks as %q, want %q", field, got, want)
		}
	}
}

// TestKernelStatsRecordCoversEveryField checks the metrics adapter
// emits one simt counter per counter the walk yields.
func TestKernelStatsRecordCoversEveryField(t *testing.T) {
	s := KernelStats{}
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(10 + i))
	}
	reg := obs.NewRegistry()
	s.Record(reg)

	s.EachCounter(func(name string, v int64) {
		series := "hmmer_simt_" + name + "_total"
		if got, ok := reg.Get(series); !ok {
			t.Errorf("Record dropped counter %s (no series %s)", name, series)
		} else if got != float64(v) {
			t.Errorf("series %s = %g, want %d", series, got, v)
		}
	})
	if util, ok := reg.Get("hmmer_simt_lane_utilization"); !ok {
		t.Error("Record did not gauge lane utilization")
	} else if want := float64(10+fieldIndex(t, "ActiveLaneSlots")) / float64(10+fieldIndex(t, "TotalLaneSlots")); util != want {
		t.Errorf("lane utilization gauge = %g, want %g", util, want)
	}
}

func fieldIndex(t *testing.T, name string) int {
	f, ok := reflect.TypeOf(KernelStats{}).FieldByName(name)
	if !ok {
		t.Fatalf("KernelStats has no field %s", name)
	}
	return f.Index[0]
}

// TestLaunchEmitsKernelSpan checks a traced launch produces a span on
// the device track, parented under the caller's span and annotated
// with the launch geometry.
func TestLaunchEmitsKernelSpan(t *testing.T) {
	tr := obs.New()
	root := tr.Start("host", "search")

	dev := NewDevice(GTX580())
	dev.Label = "device7"
	_, err := dev.Launch(LaunchConfig{
		Blocks: 2, WarpsPerBlock: 2, Name: "msv", Trace: root,
	}, func(w *Warp) {})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (search + kernel)", len(spans))
	}
	var kernel *obs.SpanRecord
	for i := range spans {
		if spans[i].Name == "kernel:msv" {
			kernel = &spans[i]
		}
	}
	if kernel == nil {
		t.Fatalf("no kernel:msv span in %v", spanNames(spans))
	}
	if kernel.Track != "device7" {
		t.Errorf("kernel span on track %q, want device7", kernel.Track)
	}
	if kernel.Parent == 0 {
		t.Error("kernel span is a root; want it parented under the search span")
	}
	attrs := make(map[string]any)
	for _, a := range kernel.Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["blocks"] != int64(2) {
		t.Errorf("kernel span blocks attr = %v, want 2", attrs["blocks"])
	}
	if _, ok := attrs["issue_cycles"]; !ok {
		t.Error("kernel span missing issue_cycles annotation")
	}
}

func spanNames(spans []obs.SpanRecord) string {
	var names []string
	for _, s := range spans {
		names = append(names, fmt.Sprintf("%s@%s", s.Name, s.Track))
	}
	return strings.Join(names, ", ")
}
