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
// or a shared byte moves one of these strings.

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

func TestFermiKernelStatsPinned(t *testing.T) {
	pins := []struct {
		m          int
		mem        MemConfig
		msv, vit   string
		rows, iter int64
	}{
		{48, MemShared,
			"{512 118380 56280 45888 0 1115 48 148864 0 0 0 23020 0 0 0 0 0 1581668 3306592 221711}",
			"{256 420004 237211 102427 0 1339 48 177536 0 0 0 52844 0 45859 0 0 0 7363409 10912800 806888}", 5627, 34603},
		{48, MemGlobal,
			"{512 118380 45024 45120 0 955 48 128384 12721 0 1628288 274348 0 0 0 0 0 1558148 3276896 222248}",
			"{256 420004 147163 102427 0 955 48 128384 121897 0 15602816 4326508 0 45859 0 0 0 7351249 10900512 838353}", 5627, 34603},
		{400, MemShared,
			"{512 332732 163712 102820 0 2089 48 273536 0 0 0 157860 0 0 0 0 0 7028644 8597408 601401}",
			"{128 2164684 1252247 456023 0 3993 48 517248 0 0 0 401700 0 290439 0 0 0 51617273 54793952 4167434}", 5116, 223931},
		{400, MemGlobal,
			"{512 332732 97204 97828 0 873 48 117888 81169 0 10389632 2050276 0 0 0 0 0 6836164 8398752 609854}",
			"{256 2164684 720183 456023 0 873 48 117888 750966 0 96123648 32746276 0 290439 0 0 0 51517817 54694112 4383216}", 5116, 223931},
	}
	for _, pin := range pins {
		up := pinUpload(t, pin.m)
		dev, ddb, dmp, dvp := up(simt.GTX580())
		s := &Searcher{Dev: dev, Mem: pin.mem}
		mrep, err := s.MSVSearch(dmp, ddb)
		if err != nil {
			t.Fatalf("M=%d %v MSV: %v", pin.m, pin.mem, err)
		}
		if got := fmt.Sprint(mrep.Launch.Stats); got != pin.msv {
			t.Errorf("M=%d %v MSV stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.msv)
		}
		vrep, err := s.ViterbiSearch(dvp, ddb)
		if err != nil {
			t.Fatalf("M=%d %v Viterbi: %v", pin.m, pin.mem, err)
		}
		if got := fmt.Sprint(vrep.Launch.Stats); got != pin.vit {
			t.Errorf("M=%d %v Viterbi stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.vit)
		}
		if vrep.LazyF.RowsIterated != pin.rows || vrep.LazyF.Iterations != pin.iter {
			t.Errorf("M=%d %v LazyF = %+v, want {%d %d}", pin.m, pin.mem, vrep.LazyF, pin.rows, pin.iter)
		}
	}
}

func TestKeplerViterbiVariantStatsPinned(t *testing.T) {
	pins := []struct {
		name       string
		m          int
		searcher   Searcher
		vit        string
		rows, iter int64
	}{
		{"eager", 100, Searcher{Mem: MemShared, EagerLazyF: true},
			"{480 3491580 1096272 834696 0 1750 48 230144 0 0 0 98404 29790 0 0 0 0 48544850 61848512 5454136}", 5958, 762624},
		{"ddscan", 100, Searcher{Mem: MemShared, DDScan: true},
			"{480 798564 333648 72072 0 1750 48 230144 0 0 0 98404 268110 0 0 0 0 10222994 13040576 1474192}", 0, 0},
		{"spill", 1300, Searcher{Mem: MemSpill},
			"{480 6362932 0 0 0 834 48 112896 5340251 1891189 925624320 314056440 24325 875530 0 0 0 157053096 158377152 14495109}", 4865, 676065},
	}
	for _, pin := range pins {
		up := pinUpload(t, pin.m)
		dev, ddb, _, dvp := up(simt.TeslaK40())
		s := pin.searcher
		s.Dev = dev
		vrep, err := s.ViterbiSearch(dvp, ddb)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if pin.name == "spill" && !vrep.Plan.RowsInGlobal {
			t.Fatalf("spill: plan keeps rows in shared memory: %+v", vrep.Plan)
		}
		if got := fmt.Sprint(vrep.Launch.Stats); got != pin.vit {
			t.Errorf("%s Viterbi stats\n got %s\nwant %s", pin.name, got, pin.vit)
		}
		if vrep.LazyF.RowsIterated != pin.rows || vrep.LazyF.Iterations != pin.iter {
			t.Errorf("%s LazyF = %+v, want {%d %d}", pin.name, vrep.LazyF, pin.rows, pin.iter)
		}
	}
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
// its shared scratch) for 1, 2 and 8 host workers. At M = 31, 70 and
// 257 some warps have no cells in a sweep. The issue term,
// IssueCycles + SyncStallCycles, is pinned on its own: it is what
// perf.GPUTime charges, so it fixes the ablation's modelled times.
func TestSyncedBaselineStatsPinned(t *testing.T) {
	pins := []struct {
		m     int
		spec  simt.DeviceSpec
		stats string
		issue int64
	}{
		{31, simt.GTX580(),
			"{512 368883 160050 160098 0 3648 48 473088 0 0 0 14976 0 0 107084 80313 0 3868825 10363008 692727}", 773040},
		{31, simt.TeslaK40(),
			"{960 368883 32010 32058 0 3648 48 473088 0 0 0 14976 106700 0 107084 80313 0 1179985 2168448 543347}", 623660},
		{70, simt.GTX580(),
			"{512 354807 164192 164336 0 3496 48 453632 0 0 0 14368 0 0 103004 56633 0 4122639 10626304 686879}", 743512},
		{70, simt.TeslaK40(),
			"{960 354807 41048 41192 0 3496 48 453632 0 0 0 14368 102620 0 103004 56633 0 1536615 2745088 543211}", 599844},
		{256, simt.GTX580(),
			"{512 495893 215525 215957 0 3972 48 514560 0 0 0 16272 0 0 163484 52713 0 6855713 13936064 931395}", 984108},
		{256, simt.TeslaK40(),
			"{960 495893 75725 76157 0 3972 48 514560 0 0 0 16272 116500 0 163484 52713 0 3919913 4988864 768295}", 821008},
		{257, simt.GTX580(),
			"{512 584144 219488 219920 0 3916 48 507392 0 0 0 16048 0 0 208320 86928 0 6809024 14187904 1027516}", 1114444},
		{257, simt.TeslaK40(),
			"{960 584144 80864 81296 0 3916 48 507392 0 0 0 16048 115520 0 208320 86928 0 3897920 5315968 865788}", 952716},
	}
	for _, pin := range pins {
		up := pinUpload(t, pin.m)
		for _, workers := range []int{1, 2, 8} {
			dev, ddb, dmp, _ := up(pin.spec)
			rep, err := (&Searcher{Dev: dev, HostWorkers: workers}).MSVSearchSynced(dmp, ddb, false)
			if err != nil {
				t.Fatalf("M=%d %s: %v", pin.m, pin.spec.Name, err)
			}
			st := rep.Launch.Stats
			if got := fmt.Sprint(st); got != pin.stats {
				t.Errorf("M=%d %s %d workers\n got %s\nwant %s", pin.m, pin.spec.Name, workers, got, pin.stats)
			}
			if got := st.IssueCycles + st.SyncStallCycles; got != pin.issue {
				t.Errorf("M=%d %s %d workers: issue term %d, want %d", pin.m, pin.spec.Name, workers, got, pin.issue)
			}
		}
	}
}
