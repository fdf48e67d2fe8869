package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// The pins in this file widen pins_test.go to the model sizes where a
// DP row's 32-cell chunking changes shape — one cell, one short of a
// chunk, exactly one, one past, two, two plus one, a long ragged row,
// and the K40's shared/global crossover — on both devices, every
// memory configuration, both simulator modes and 1, 2 and 8 host
// workers. They were taken from the chunk-at-a-time kernels; a kernel
// that moves a charge, a span size, a race note or a shared byte moves
// a line of the test's table under testdata/ (see pins_test.go for the
// format and for how a re-take is made).
var chunkEdges = []int{1, 31, 32, 33, 64, 65, 257, 1056}

// edgeUpload builds size m's model and a database that reaches every
// exit of both kernels: background sequences, sampled homologs (Lazy-F
// rounds) and two tandem repeats of the consensus (the MSV overflow
// return). It returns a function uploading both to a fresh device.
func edgeUpload(t *testing.T, m int) func(simt.DeviceSpec) (*simt.Device, *DeviceDB, *DeviceMSVProfile, *DeviceVitProfile) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1100 + m)))
	h, err := hmm.Random("edge", m, abc, hmm.DefaultBuildParams(), rng)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.Config(h)
	p.SetLength(200)
	mp, vp := profile.NewMSVProfile(p), profile.NewVitProfile(p)
	db := testDB(t, rng, 16, 100)
	for i := 0; i < 2; i++ {
		if s := h.SampleSequence(rng); len(s) > 0 {
			db.Add(&seq.Sequence{Name: "homolog", Residues: s[:min(len(s), 200)]})
		}
	}
	cons := h.Consensus()
	for _, reps := range []int{2, 3} {
		var tandem []byte
		for len(tandem) < min(reps*m, 300) || len(tandem) < 60 {
			tandem = append(tandem, cons...)
		}
		db.Add(&seq.Sequence{Name: "tandem", Residues: tandem[:max(min(reps*m, 300), 60)]})
	}
	return func(spec simt.DeviceSpec) (*simt.Device, *DeviceDB, *DeviceMSVProfile, *DeviceVitProfile) {
		dev := simt.NewDevice(spec)
		dmp := UploadMSVProfile(dev, mp)
		dvp := UploadVitProfile(dev, vp)
		return dev, UploadDB(dev, db), dmp, dvp
	}
}

// edgeConfig is one launch shape of the widened pins.
type edgeConfig struct {
	vit bool
	mem MemConfig
}

func (c edgeConfig) String() string {
	if c.vit {
		return c.mem.String() + "/vit"
	}
	return c.mem.String() + "/msv"
}

var edgeConfigs = []edgeConfig{
	{false, MemShared}, {false, MemGlobal},
	{true, MemShared}, {true, MemGlobal}, {true, MemSpill},
}

// edgeOutcome is what a pin holds of one launch.
type edgeOutcome struct {
	stats simt.KernelStats
	lazy  LazyFStats
	sum   uint64
	over  int // results that took the overflow return
}

func (o edgeOutcome) String() string {
	return fmt.Sprintf("%v lazyf=%d/%d checksum=%#x overflowed=%d", &o.stats, o.lazy.RowsIterated, o.lazy.Iterations, o.sum, o.over)
}

// record adds the outcome to p under pin.
func (o *edgeOutcome) record(p *pinTable, pin string) {
	p.stats(pin, o.stats)
	p.lazyF(pin, o.lazy)
	p.add(pin, "checksum", fmt.Sprintf("%#x", o.sum))
	p.add(pin, "overflowed", o.over)
}

// edgeSearch runs one configuration and reports ok=false when the plan
// is refused (the model does not fit the configuration).
func edgeSearch(t *testing.T, s *Searcher, c edgeConfig, dmp *DeviceMSVProfile, dvp *DeviceVitProfile, ddb *DeviceDB) (edgeOutcome, bool) {
	t.Helper()
	s.Mem = c.mem
	var rep *SearchReport
	var err error
	if c.vit {
		rep, err = s.ViterbiSearch(dvp, ddb)
	} else {
		rep, err = s.MSVSearch(dmp, ddb)
	}
	if err != nil {
		return edgeOutcome{}, false
	}
	o := edgeOutcome{stats: rep.Launch.Stats, lazy: rep.LazyF, sum: integrity.Checksum(rep.Results)}
	for _, r := range rep.Results {
		if r.Overflowed {
			o.over++
		}
	}
	return o, true
}

func TestKernelStatsPinnedAtChunkEdges(t *testing.T) {
	variants := []struct {
		mode    simt.Mode
		workers int
	}{
		{simt.ModeCycleAccurate, 2}, {simt.ModeCycleAccurate, 8},
		{simt.ModeFast, 1}, {simt.ModeFast, 2}, {simt.ModeFast, 8},
	}
	var tab pinTable
	for _, m := range chunkEdges {
		up := edgeUpload(t, m)
		for _, spec := range []simt.DeviceSpec{simt.GTX580(), simt.TeslaK40()} {
			for _, c := range edgeConfigs {
				key := fmt.Sprintf("M=%d/%s/%v", m, devName(spec), c)
				dev, ddb, dmp, dvp := up(spec)
				base, ok := edgeSearch(t, &Searcher{Dev: dev, HostWorkers: 1}, c, dmp, dvp, ddb)
				if !ok {
					tab.add(key, "refused", "")
					continue
				}
				base.record(&tab, key)
				for _, v := range variants {
					dev, ddb, dmp, dvp := up(spec)
					dev.Mode = v.mode
					o, _ := edgeSearch(t, &Searcher{Dev: dev, HostWorkers: v.workers}, c, dmp, dvp, ddb)
					if v.mode == simt.ModeFast {
						// Fast mode records nothing but the warps it ran.
						if o.stats != (simt.KernelStats{WarpsExecuted: base.stats.WarpsExecuted}) {
							t.Errorf("%s fast/%d workers recorded %v", key, v.workers, &o.stats)
						}
						o.stats = base.stats
					}
					if o != base {
						t.Errorf("%s %v/%d workers\n got %v\nwant %v", key, v.mode, v.workers, o, base)
					}
				}
			}
		}
	}
	tab.check(t)
}

// TestSharedRacesPinnedAtChunkEdges pins one race-tracked launch per
// kernel. Under MemShared, warp 0 stores the MSV emission table that
// its block mates then read with no barrier between, so the tracker
// counts those reads; the counts fix the order and extent of every
// span the kernels note.
func TestSharedRacesPinnedAtChunkEdges(t *testing.T) {
	up := edgeUpload(t, 65)
	dev, ddb, dmp, dvp := up(simt.GTX580())
	s := &Searcher{Dev: dev, DetectRaces: true, HostWorkers: 2}
	msv, _ := edgeSearch(t, s, edgeConfig{false, MemShared}, dmp, dvp, ddb)
	vit, _ := edgeSearch(t, s, edgeConfig{true, MemShared}, dmp, dvp, ddb)
	var tab pinTable
	msv.record(&tab, "M=65/GTX580/shared/msv")
	vit.record(&tab, "M=65/GTX580/shared/vit")
	tab.check(t)
	if msv.stats.SharedRaces == 0 {
		t.Error("the MSV table reads raced nothing; the pin checks nothing")
	}
}

// TestSharedFlipScoresPinnedAtChunkEdges is TestSharedFlipScoresPinned
// at every chunk edge and memory configuration: the same seeded
// flip@shared= overlay on the non-ECC GTX 580 must corrupt the same
// scores, in both simulator modes.
func TestSharedFlipScoresPinnedAtChunkEdges(t *testing.T) {
	var tab pinTable
	corrupted := 0
	for _, m := range chunkEdges {
		up := edgeUpload(t, m)
		for _, c := range edgeConfigs {
			key := fmt.Sprintf("M=%d/GTX580/%v", m, c)
			var sums [2]uint64
			var ok bool
			for i, mode := range []simt.Mode{simt.ModeCycleAccurate, simt.ModeFast} {
				dev, ddb, dmp, dvp := up(simt.GTX580())
				dev.Mode = mode
				dev.Faults = simt.NewFaultInjector(1)
				dev.Faults.Mem = simt.NewMemFaultInjector(int64(m)).FlipShared(0.004)
				var o edgeOutcome
				o, ok = edgeSearch(t, &Searcher{Dev: dev, HostWorkers: 1 + 7*i}, c, dmp, dvp, ddb)
				sums[i] = o.sum
			}
			if !ok {
				continue
			}
			if sums[1] != sums[0] {
				t.Errorf("%s: fast mode checksum %#x, cycle mode %#x", key, sums[1], sums[0])
			}
			dev, ddb, dmp, dvp := up(simt.GTX580())
			clean, _ := edgeSearch(t, &Searcher{Dev: dev}, c, dmp, dvp, ddb)
			if clean.sum != sums[0] {
				corrupted++
			}
			tab.add(key, "checksum", fmt.Sprintf("%#x", sums[0]))
		}
	}
	tab.check(t)
	if corrupted < len(chunkEdges) {
		t.Errorf("the overlay corrupted only %d launches; the pins check little", corrupted)
	}
}
