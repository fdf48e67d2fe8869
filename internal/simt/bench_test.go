package simt

import "testing"

// BenchmarkLaunchOverhead measures the host cost of an (almost) empty
// launch — the fixed per-launch work the perf model's overhead
// constant stands for.
func BenchmarkLaunchOverhead(b *testing.B) {
	dev := NewDevice(TeslaK40())
	nop := func(w *Warp) { w.ALU(1) }
	for i := 0; i < b.N; i++ {
		if _, err := dev.Launch(LaunchConfig{Blocks: 30, WarpsPerBlock: 4}, nop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOccupancyCalc measures the planner's core primitive.
func BenchmarkOccupancyCalc(b *testing.B) {
	spec := TeslaK40()
	r := KernelResources{RegsPerThread: 64, SharedPerBlock: 12345, ThreadsPerBlock: 128}
	for i := 0; i < b.N; i++ {
		spec.CalcOccupancy(r)
	}
}
