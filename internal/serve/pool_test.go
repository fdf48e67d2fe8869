package serve

import (
	"context"
	"slices"
	"testing"

	"hmmer3gpu/internal/simt"
)

// TestDevicePoolBreaker drives lease/release sequences through the
// pool's breaker. Each step leases every healthy device and releases
// the lease with a fault report: a quarantined device takes a strike,
// a clean one has its strikes cleared, and a release without a report
// (the run never reached the scheduler) leaves them alone. A trip
// cordons the device for good.
func TestDevicePoolBreaker(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cordonAfter int
		// One string per step, one letter per device by index: q ended
		// quarantined, c ended clean. "" releases with no report.
		steps    []string
		cordoned []int
	}{
		{"a clean lease resets the strikes", 2, []string{"qc", "cc", "qc"}, nil},
		{"CordonAfter quarantined leases in a row cordon", 2, []string{"qc", "qc"}, []int{0}},
		{"zero CordonAfter means two", 0, []string{"qq", "qc"}, []int{0}},
		{"CordonAfter one cordons at the first strike", 1, []string{"cq"}, []int{1}},
		{"a release without a report leaves the strikes", 2, []string{"qq", "", "qc"}, []int{0}},
		{"negative CordonAfter never cordons", -1, []string{"qq", "qq", "qq", "qq"}, nil},
		{"every device cordoned", 1, []string{"qq"}, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 2
			p := newDevicePool(simt.NewSystem(simt.GTX580(), n).Devices, tc.cordonAfter)
			for _, step := range tc.steps {
				lease, err := p.lease(context.Background(), n)
				if err != nil {
					t.Fatal(err)
				}
				if step == "" {
					p.release(lease, nil)
					continue
				}
				quarantined := make([]bool, len(lease))
				for k, d := range lease {
					quarantined[k] = step[d.index] == 'q'
				}
				p.release(lease, quarantined)
			}

			if got := p.cordonedIndexes(); !slices.Equal(got, tc.cordoned) {
				t.Fatalf("cordoned %v, want %v", got, tc.cordoned)
			}
			healthy, cordoned, busy := p.health()
			if healthy != n-len(tc.cordoned) || cordoned != len(tc.cordoned) || busy != 0 {
				t.Errorf("health = %d healthy, %d cordoned, %d busy", healthy, cordoned, busy)
			}
			// The next lease takes exactly the healthy devices; with none
			// left it comes back empty, the degrade-to-CPU signal.
			lease, err := p.lease(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, d := range lease {
				got = append(got, d.index)
			}
			want := slices.DeleteFunc([]int{0, 1}, func(i int) bool { return slices.Contains(tc.cordoned, i) })
			if !slices.Equal(got, want) || (len(want) == 0) != (lease == nil) {
				t.Errorf("lease after the steps = %v, want %v", got, want)
			}
		})
	}
}
