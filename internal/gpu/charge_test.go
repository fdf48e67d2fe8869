package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// TestBiasedRowAtOverflowBoundary drives hand-built MSV profiles whose
// row maximum reaches exactly OverflowThreshold()-1, and then exactly
// OverflowThreshold(). Every cost is bias+1 except one node's, chosen so
// that the entry from xB lands on the target there; TEC keeps xB from
// growing, so every row peaks at the target and the next row reads the
// peak back through the diagonal. At threshold-1 that stored cell is
// byte 254 — the largest a biased row holds before the plain +bias
// would carry into the next lane — and the sequence must score; at the
// threshold it must overflow on the first row. cpu.MSVEngine, the
// device kernel on both devices (exact blocks, and the Fermi scratch
// reduction under race tracking) and MSVFilterScalar must agree bit for
// bit, Overflowed included.
func TestBiasedRowAtOverflowBoundary(t *testing.T) {
	const tbm = 0 // xB enters the row at MSVBase
	rng := rand.New(rand.NewSource(31))
	db := seq.NewDatabase("boundary")
	for _, n := range []int{1, 2, 6, 40} {
		db.Add(&seq.Sequence{Name: "s", Residues: randomSeq(rng, n)})
	}
	engines := []struct {
		name string
		spec simt.DeviceSpec
		race bool
	}{
		{"K40", simt.TeslaK40(), false},
		{"GTX580", simt.GTX580(), false},
		{"GTX580/races", simt.GTX580(), true},
	}
	finite, overflowed := 0, 0
	for _, bias := range []uint8{40, 66, 127, 128, 200, 254} {
		for _, m := range []int{1, 8, 33, 70} {
			for _, peak := range []int{1, 8, 32, m} {
				if peak > m {
					continue
				}
				for _, above := range []bool{false, true} {
					mp := &profile.MSVProfile{M: m, Bias: bias, TBM: tbm}
					target := mp.OverflowThreshold() - 1
					if above {
						target++
					}
					entry := satmath.AddU8(profile.MSVBase-tbm, bias)
					mp.TEC = satmath.SubU8(target, profile.MSVBase)
					mp.MatCost = make([][]uint8, abc.SizeAll())
					for r := range mp.MatCost {
						row := make([]uint8, m+1)
						for k := range row {
							row[k] = bias + 1
						}
						row[0], row[peak] = 255, entry-target
						mp.MatCost[r] = row
					}
					key := fmt.Sprintf("bias=%d M=%d peak=%d target=%d", bias, m, peak, target)

					want := make([]cpu.FilterResult, db.NumSeqs())
					for i, s := range db.Seqs {
						want[i] = cpu.MSVFilterScalar(mp, s.Residues)
						if got := cpu.NewMSVEngine(mp).Filter(s.Residues); got != want[i] {
							t.Fatalf("%s seq %d: striped %+v, scalar %+v", key, i, got, want[i])
						}
						if want[i].Overflowed != above {
							t.Fatalf("%s seq %d: scalar %+v, want Overflowed=%v", key, i, want[i], above)
						}
						if above {
							overflowed++
						} else {
							finite++
						}
					}
					for _, e := range engines {
						dev := simt.NewDevice(e.spec)
						dmp := UploadMSVProfile(dev, mp)
						s := &Searcher{Dev: dev, Mem: MemShared, DetectRaces: e.race}
						rep, err := s.MSVSearch(dmp, UploadDB(dev, db))
						if err != nil {
							t.Fatalf("%s %s: %v", key, e.name, err)
						}
						for i := range want {
							if rep.Results[i] != want[i] {
								t.Fatalf("%s %s seq %d: device %+v, scalar %+v", key, e.name, i, rep.Results[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if finite == 0 || overflowed == 0 {
		t.Errorf("%d finite scores, %d overflow exits: both sides of the boundary must be reached", finite, overflowed)
	}
}

// TestFastModeSampledBlocksGetRowCharge: a fast-mode launch whose every
// block a kernel profiler samples runs with cycle accounting attached,
// so the per-row charge must apply there too, and each kernel must
// report the KernelStats of its cycle-mode launch.
func TestFastModeSampledBlocksGetRowCharge(t *testing.T) {
	up := edgeUpload(t, 65)
	for _, spec := range []simt.DeviceSpec{simt.TeslaK40(), simt.GTX580()} {
		for _, c := range edgeConfigs {
			var stats [2]simt.KernelStats
			for i, mode := range []simt.Mode{simt.ModeCycleAccurate, simt.ModeFast} {
				dev, ddb, dmp, dvp := up(spec)
				dev.Mode = mode
				prof := kernprof.NewCollector()
				prof.SetSamplePeriod(1)
				dev.Profiler = prof
				o, _ := edgeSearch(t, &Searcher{Dev: dev, HostWorkers: 2}, c, dmp, dvp, ddb)
				stats[i] = o.stats
			}
			if stats[0].ALUOps == 0 {
				t.Fatalf("%s %v: the cycle-mode launch charged nothing", spec.Name, c)
			}
			if stats[1] != stats[0] {
				t.Errorf("%s %v: sampled fast mode\n%v\ncycle mode\n%v", spec.Name, c, &stats[1], &stats[0])
			}
		}
	}
}
