package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/simt"
)

// The pins below were taken from the lane-at-a-time kernels (the
// parent of the change that moved the warp registers onto SWAR words)
// and hold what pipeline's TestRunGPUKernelStatsPinned does not reach:
// the Fermi shared-scratch reduction, the Lazy-F ablation, the §VI
// scan, the row-spill variant, and the bytes a shared-memory fault
// overlay corrupts. A kernel rewrite that moves a charge, a span size
// or a shared byte moves a line of a pin test's table,
// testdata/<test>.golden: one "<pin> <counter> <value>" line per
// nonzero counter, so a diff names what moved. A re-take is
// `go test -run Pinned -update`, in a commit of its own that says why
// the values moved.

// pinUpload builds the pins' fixed model of size m and 48-sequence
// database and returns a function uploading both to a fresh device.
func pinUpload(t *testing.T, m int) func(simt.DeviceSpec) (*simt.Device, *DeviceDB, *DeviceMSVProfile, *DeviceVitProfile) {
	t.Helper()
	mp, vp := buildProfiles(t, m, 160, int64(900+m))
	db := testDB(t, rand.New(rand.NewSource(int64(7000+m))), 48, 220)
	return func(spec simt.DeviceSpec) (*simt.Device, *DeviceDB, *DeviceMSVProfile, *DeviceVitProfile) {
		dev := simt.NewDevice(spec)
		// Profiles before the database: the upload order every
		// pipeline entry point uses.
		dmp := UploadMSVProfile(dev, mp)
		dvp := UploadVitProfile(dev, vp)
		return dev, UploadDB(dev, db), dmp, dvp
	}
}

// devName is a device's name in pin tables.
func devName(spec simt.DeviceSpec) string {
	if spec.Arch == simt.Fermi {
		return "GTX580"
	}
	return "K40"
}

// stats adds each counter of s to p under pin.
func (p *pinTable) stats(pin string, s simt.KernelStats) {
	s.EachCounter(func(name string, v int64) { p.add(pin, name, v) })
}

// lazyF adds a Viterbi launch's Lazy-F counts to p under pin.
func (p *pinTable) lazyF(pin string, l LazyFStats) {
	p.add(pin, "lazyf_rows", l.RowsIterated)
	p.add(pin, "lazyf_iterations", l.Iterations)
}

func TestFermiKernelStatsPinned(t *testing.T) {
	var tab pinTable
	for _, m := range []int{48, 400} {
		up := pinUpload(t, m)
		for _, mem := range []MemConfig{MemShared, MemGlobal} {
			pin := fmt.Sprintf("M=%d/GTX580/%v", m, mem)
			dev, ddb, dmp, dvp := up(simt.GTX580())
			s := &Searcher{Dev: dev, Mem: mem}
			mrep, err := s.MSVSearch(dmp, ddb)
			if err != nil {
				t.Fatalf("%s/msv: %v", pin, err)
			}
			vrep, err := s.ViterbiSearch(dvp, ddb)
			if err != nil {
				t.Fatalf("%s/vit: %v", pin, err)
			}
			tab.stats(pin+"/msv", mrep.Launch.Stats)
			tab.stats(pin+"/vit", vrep.Launch.Stats)
			tab.lazyF(pin+"/vit", vrep.LazyF)
		}
	}
	tab.check(t)
}

func TestKeplerViterbiVariantStatsPinned(t *testing.T) {
	var tab pinTable
	for _, v := range []struct {
		name     string
		m        int
		searcher Searcher
	}{
		{"eager", 100, Searcher{Mem: MemShared, EagerLazyF: true}},
		{"ddscan", 100, Searcher{Mem: MemShared, DDScan: true}},
		{"spill", 1300, Searcher{Mem: MemSpill}},
	} {
		pin := fmt.Sprintf("M=%d/K40/%s/vit", v.m, v.name)
		dev, ddb, _, dvp := pinUpload(t, v.m)(simt.TeslaK40())
		s := v.searcher
		s.Dev = dev
		vrep, err := s.ViterbiSearch(dvp, ddb)
		if err != nil {
			t.Fatalf("%s: %v", pin, err)
		}
		if v.name == "spill" && !vrep.Plan.RowsInGlobal {
			t.Fatalf("%s: plan keeps rows in shared memory: %+v", pin, vrep.Plan)
		}
		tab.stats(pin, vrep.Launch.Stats)
		tab.lazyF(pin, vrep.LazyF)
	}
	tab.check(t)
}

// TestSharedFlipScoresPinned runs both kernels under one seeded
// flip@shared= overlay on the non-ECC GTX 580 and pins the checksum of
// the (wrong) scores: the overlay must be read at the same bytes, by
// the same loads, as at the parent.
func TestSharedFlipScoresPinned(t *testing.T) {
	const wantMSV, wantVit = uint64(0x408a2d382ee8b03e), uint64(0x78fb7fc8cca1c97e)
	up := pinUpload(t, 100)
	run := func(flip bool) (uint64, uint64) {
		dev, ddb, dmp, dvp := up(simt.GTX580())
		if flip {
			dev.Faults = simt.NewFaultInjector(1)
			dev.Faults.Mem = simt.NewMemFaultInjector(5).FlipShared(0.004)
		}
		s := &Searcher{Dev: dev, Mem: MemShared}
		mrep, err := s.MSVSearch(dmp, ddb)
		if err != nil {
			t.Fatal(err)
		}
		vrep, err := s.ViterbiSearch(dvp, ddb)
		if err != nil {
			t.Fatal(err)
		}
		return integrity.Checksum(mrep.Results), integrity.Checksum(vrep.Results)
	}
	cleanMSV, cleanVit := run(false)
	gotMSV, gotVit := run(true)
	if gotMSV == cleanMSV || gotVit == cleanVit {
		t.Fatalf("the overlay corrupted nothing: msv %#x (clean %#x), vit %#x (clean %#x)",
			gotMSV, cleanMSV, gotVit, cleanVit)
	}
	if gotMSV != wantMSV || gotVit != wantVit {
		t.Errorf("flipped checksums msv %#x vit %#x, want %#x %#x", gotMSV, gotVit, wantMSV, wantVit)
	}
}

// TestSyncedBaselineStatsPinned pins the A1 ablation's synchronised
// multi-warp MSV kernel on both devices (the GTX 580 reduces through
// its shared scratch); 2 and 8 host workers must count what 1 does.
// At M = 31, 70 and 257 some warps have no cells in a sweep. The issue
// term, IssueCycles + SyncStallCycles, is pinned on its own: it is
// what perf.GPUTime charges, so it fixes the ablation's modelled times.
func TestSyncedBaselineStatsPinned(t *testing.T) {
	var tab pinTable
	for _, m := range []int{31, 70, 256, 257} {
		up := pinUpload(t, m)
		for _, spec := range []simt.DeviceSpec{simt.GTX580(), simt.TeslaK40()} {
			pin := fmt.Sprintf("M=%d/%s/synced/msv", m, devName(spec))
			var base simt.KernelStats
			for _, workers := range []int{1, 2, 8} {
				dev, ddb, dmp, _ := up(spec)
				rep, err := (&Searcher{Dev: dev, HostWorkers: workers}).MSVSearchSynced(dmp, ddb, false)
				if err != nil {
					t.Fatalf("%s: %v", pin, err)
				}
				st := rep.Launch.Stats
				if workers == 1 {
					base = st
					tab.stats(pin, st)
					tab.add(pin, "issue_term", st.IssueCycles+st.SyncStallCycles)
				} else if st != base {
					t.Errorf("%s, %d workers:\n got %v\nwant %v (1 worker)", pin, workers, &st, &base)
				}
			}
		}
	}
	tab.check(t)
}
