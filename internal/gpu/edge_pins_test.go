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
// one of these strings.
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
		return "vit/" + c.mem.String()
	}
	return "msv/" + c.mem.String()
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
	return fmt.Sprintf("%v %d/%d %#x %d", o.stats, o.lazy.RowsIterated, o.lazy.Iterations, o.sum, o.over)
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

// edgePins maps "M=<m> <arch> <kernel>/<mem>" to the cycle-mode
// outcome at one host worker; "" means the plan is refused.
var edgePins = map[string]string{
	"M=1 Fermi msv/shared":     "{512 17896 8384 7740 0 198 20 27904 0 0 0 1656 0 0 0 0 0 143084 522944 34238} 0/0 0xe943d8e6f2cda43e 0",
	"M=1 Fermi msv/global":     "{512 17896 7336 7356 0 182 20 25856 1048 0 134144 1936 0 0 0 0 0 142124 510144 33838} 0/0 0xe943d8e6f2cda43e 0",
	"M=1 Fermi vit/shared":     "{256 33616 22008 9492 0 198 20 27904 0 0 0 2872 0 1048 0 0 0 162612 1014976 66382} 0/0 0x83f33f616463e031 0",
	"M=1 Fermi vit/global":     "{256 33616 13624 9492 0 182 20 25856 8384 0 1073152 17656 0 1048 0 0 0 162116 1014464 66366} 0/0 0x83f33f616463e031 0",
	"M=1 Fermi vit/spill":      "{256 33616 6288 6288 0 182 20 25856 15720 3204 2422272 49336 0 1048 0 0 0 162116 1014464 66366} 0/0 0x83f33f616463e031 0",
	"M=1 Kepler msv/shared":    "{960 17896 2096 1788 0 212 20 29696 0 0 0 2328 5240 0 0 0 0 11876 131712 27252} 0/0 0xe943d8e6f2cda43e 0",
	"M=1 Kepler msv/global":    "{960 17896 1048 1068 0 182 20 25856 1048 0 134144 1936 5240 0 0 0 0 10076 107712 26502} 0/0 0xe943d8e6f2cda43e 0",
	"M=1 Kepler vit/shared":    "{480 33616 15720 3204 0 197 20 27776 0 0 0 2748 5240 1048 0 0 0 30533 612512 59045} 0/0 0x83f33f616463e031 0",
	"M=1 Kepler vit/global":    "{480 33616 7336 3204 0 182 20 25856 8384 0 1073152 17656 5240 1048 0 0 0 30068 612032 59030} 0/0 0x83f33f616463e031 0",
	"M=1 Kepler vit/spill":     "{480 33616 0 0 0 182 20 25856 15720 3204 2422272 49336 5240 1048 0 0 0 30068 612032 59030} 0/0 0x83f33f616463e031 0",
	"M=31 Fermi msv/shared":    "{512 15160 7104 6620 0 254 20 35072 0 0 0 13080 0 0 0 0 0 216436 447936 29158} 0/0 0x8d975d320dccd20f 4",
	"M=31 Fermi msv/global":    "{512 15160 6216 6236 0 158 20 22784 888 0 113664 28320 0 0 0 0 0 201076 432576 28678} 0/0 0x8d975d320dccd20f 4",
	"M=31 Fermi vit/shared":    "{256 51280 26320 13900 0 439 20 58752 0 0 0 32636 0 5520 0 0 0 1014532 1301728 97479} 1010/4480 0xd2c363603efbfb04 0",
	"M=31 Fermi vit/global":    "{256 51280 18000 13900 0 183 20 25984 8320 0 1064960 516732 0 5520 0 0 0 1006596 1293536 97223} 1010/4480 0xd2c363603efbfb04 0",
	"M=31 Fermi vit/spill":     "{256 51280 6240 6240 0 183 20 25984 20080 7660 3550720 1740252 0 5520 0 0 0 1006596 1293536 97223} 1010/4480 0xd2c363603efbfb04 0",
	"M=31 Kepler msv/shared":   "{960 15160 1776 1628 0 338 20 45824 0 0 0 23832 4440 0 0 0 0 117988 120384 23362} 0/0 0x8d975d320dccd20f 4",
	"M=31 Kepler msv/global":   "{960 15160 888 908 0 158 20 22784 888 0 113664 28320 4440 0 0 0 0 89188 91584 22462} 0/0 0x8d975d320dccd20f 4",
	"M=31 Kepler vit/shared":   "{480 51280 20080 7660 0 423 20 56704 0 0 0 30652 5200 5520 0 0 0 882996 901856 90183} 1010/4480 0xd2c363603efbfb04 0",
	"M=31 Kepler vit/global":   "{480 51280 11760 7660 0 183 20 25984 8320 0 1064960 516732 5200 5520 0 0 0 875556 894176 89943} 1010/4480 0xd2c363603efbfb04 0",
	"M=31 Kepler vit/spill":    "{480 51280 0 0 0 183 20 25984 20080 7660 3550720 1740252 5200 5520 0 0 0 875556 894176 89943} 1010/4480 0xd2c363603efbfb04 0",
	"M=32 Fermi msv/shared":    "{512 14344 6720 6688 0 260 20 35840 0 0 0 13424 0 0 0 0 0 207736 438016 28032} 0/0 0x4776fac1002f6a6e 4",
	"M=32 Fermi msv/global":    "{512 14344 5880 5920 0 148 20 21504 1052 0 134656 27632 0 0 0 0 0 191896 409856 27364} 0/0 0x4776fac1002f6a6e 4",
	"M=32 Fermi vit/shared":    "{256 51548 26127 14007 0 434 20 58112 0 0 0 33640 0 5727 0 0 0 1033176 1298816 97863} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=32 Fermi vit/global":    "{256 51548 17967 14007 0 178 20 25344 11789 0 1508992 523112 0 5727 0 0 0 1024984 1290624 101236} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=32 Fermi vit/spill":     "{256 51548 6120 6120 0 178 20 25344 28748 11483 5149568 1782368 0 5727 0 0 0 1024984 1290624 109944} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=32 Kepler msv/shared":   "{960 14344 1680 2320 0 358 20 48384 0 0 0 24512 4200 0 0 0 0 115756 140096 22922} 0/0 0x4776fac1002f6a6e 4",
	"M=32 Kepler msv/global":   "{960 14344 840 880 0 148 20 21504 1052 0 134656 27632 4200 0 0 0 0 86056 87296 21484} 0/0 0x4776fac1002f6a6e 4",
	"M=32 Kepler vit/shared":   "{480 51548 20007 7887 0 418 20 56064 0 0 0 31592 5100 5727 0 0 0 904144 906624 90707} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=32 Kepler vit/global":   "{480 51548 11847 7887 0 178 20 25344 11789 0 1508992 523112 5100 5727 0 0 0 896464 898944 94096} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=32 Kepler vit/spill":    "{480 51548 0 0 0 178 20 25344 28748 11483 5149568 1782368 5100 5727 0 0 0 896464 898944 102804} 1015/4707 0x7f32ee43497e0fd8 0",
	"M=33 Fermi msv/shared":    "{512 20455 9710 8576 0 283 20 38784 0 0 0 13900 0 0 0 0 0 241938 594848 39044} 0/0 0xe63b2ab6596f3e09 4",
	"M=33 Fermi msv/global":    "{512 20455 7768 7808 0 171 20 24448 2180 0 279040 32887 0 0 0 0 0 225618 566688 38402} 0/0 0xe63b2ab6596f3e09 4",
	"M=33 Fermi vit/shared":    "{256 77424 46267 18883 0 472 20 62976 0 0 0 34688 0 7303 0 0 0 1168446 2100544 150369} 1132/5011 0xc344d401865fc8bd 0",
	"M=33 Fermi vit/global":    "{256 77424 27931 18883 0 200 20 28160 22284 0 2852352 606048 0 7303 0 0 0 1160014 2091840 154045} 1132/5011 0xc344d401865fc8bd 0",
	"M=33 Fermi vit/spill":     "{256 77424 6876 6876 0 200 20 28160 49864 16223 8459136 2019356 0 7303 0 0 0 1160014 2091840 164786} 1132/5011 0xc344d401865fc8bd 0",
	"M=33 Kepler msv/shared":   "{960 20455 3884 3422 0 381 20 51328 0 0 0 25324 4855 0 0 0 0 133872 246624 33017} 0/0 0xe63b2ab6596f3e09 4",
	"M=33 Kepler msv/global":   "{960 20455 1942 1982 0 171 20 24448 2180 0 279040 32887 4855 0 0 0 0 103272 193824 31605} 0/0 0xe63b2ab6596f3e09 4",
	"M=33 Kepler vit/shared":   "{480 77424 39391 12007 0 455 20 60800 0 0 0 32580 5730 7303 0 0 0 1023523 1659936 142330} 1132/5011 0xc344d401865fc8bd 0",
	"M=33 Kepler vit/global":   "{480 77424 21055 12007 0 200 20 28160 22284 0 2852352 606048 5730 7303 0 0 0 1015618 1651776 146023} 1132/5011 0xc344d401865fc8bd 0",
	"M=33 Kepler vit/spill":    "{480 77424 0 0 0 200 20 28160 49864 16223 8459136 2019356 5730 7303 0 0 0 1015618 1651776 156764} 1132/5011 0xc344d401865fc8bd 0",
	"M=64 Fermi msv/shared":    "{512 14365 6810 6660 0 331 20 44928 0 0 0 25612 0 0 0 0 0 253014 442272 28186} 0/0 0xf585be9699b45192 4",
	"M=64 Fermi msv/global":    "{512 14365 5448 5508 0 123 20 18304 1759 0 225152 44236 0 0 0 0 0 221814 398752 27223} 0/0 0xf585be9699b45192 4",
	"M=64 Fermi vit/shared":    "{256 94462 48717 23241 0 698 20 91904 0 0 0 65416 0 12371 0 0 0 2047094 2325632 179509} 1069/10233 0xa7270158d03a91fd 0",
	"M=64 Fermi vit/global":    "{256 94462 31613 23241 0 186 20 26368 24495 0 3135360 1095560 0 12371 0 0 0 2030966 2309248 186388} 1069/10233 0xa7270158d03a91fd 0",
	"M=64 Fermi vit/spill":     "{256 94462 6414 6414 0 186 20 26368 61421 24684 11021440 3781504 0 12371 0 0 0 2030966 2309248 205972} 1069/10233 0xa7270158d03a91fd 0",
	"M=64 Kepler msv/shared":   "{960 14365 2724 3582 0 513 20 68224 0 0 0 47452 3405 0 0 0 0 194508 218848 24609} 0/0 0xf585be9699b45192 4",
	"M=64 Kepler msv/global":   "{960 14365 1362 1422 0 123 20 18304 1759 0 225152 44236 3405 0 0 0 0 136008 137248 22456} 0/0 0xf585be9699b45192 4",
	"M=64 Kepler vit/shared":   "{480 94462 42303 16827 0 666 20 87808 0 0 0 61384 5345 12371 0 0 0 1911392 1914112 171994} 1069/10233 0xa7270158d03a91fd 0",
	"M=64 Kepler vit/global":   "{480 94462 25199 16827 0 186 20 26368 24495 0 3135360 1095560 5345 12371 0 0 0 1896272 1898752 178905} 1069/10233 0xa7270158d03a91fd 0",
	"M=64 Kepler vit/spill":    "{480 94462 0 0 0 186 20 26368 61421 24684 11021440 3781504 5345 12371 0 0 0 1896272 1898752 198489} 1069/10233 0xa7270158d03a91fd 0",
	"M=65 Fermi msv/shared":    "{512 21764 10416 9024 0 360 20 48640 0 0 0 26112 0 0 0 0 0 317380 634240 41584} 0/0 0xe5546f85adb485ad 4",
	"M=65 Fermi msv/global":    "{512 21764 7812 7872 0 152 20 22016 3079 0 394112 57188 0 0 0 0 0 285700 590720 40699} 0/0 0xe5546f85adb485ad 4",
	"M=65 Fermi vit/shared":    "{256 132208 75838 30694 0 730 20 96000 0 0 0 66504 0 15406 0 0 0 2409539 3433024 254896} 1257/11629 0x7fc5a89dd5154895 0",
	"M=65 Fermi vit/global":    "{256 132208 45622 30694 0 218 20 30464 38895 0 4978560 1310392 0 15406 0 0 0 2393171 3416640 263063} 1257/11629 0x7fc5a89dd5154895 0",
	"M=65 Fermi vit/spill":     "{256 132208 7554 7554 0 218 20 30464 90542 32459 15744128 4456114 0 15406 0 0 0 2393171 3416640 285961} 1257/11629 0x7fc5a89dd5154895 0",
	"M=65 Kepler msv/shared":   "{960 21764 5208 4824 0 542 20 71936 0 0 0 48288 4340 0 0 0 0 235732 339008 36698} 0/0 0xe5546f85adb485ad 4",
	"M=65 Kepler msv/global":   "{960 21764 2604 2664 0 152 20 22016 3079 0 394112 57188 4340 0 0 0 0 176332 257408 34623} 0/0 0xe5546f85adb485ad 4",
	"M=65 Kepler vit/shared":   "{480 132208 68284 23140 0 698 20 91904 0 0 0 62412 6295 15406 0 0 0 2249882 2948544 246051} 1257/11629 0x7fc5a89dd5154895 0",
	"M=65 Kepler vit/global":   "{480 132208 38068 23140 0 218 20 30464 38895 0 4978560 1310392 6295 15406 0 0 0 2234537 2933184 254250} 1257/11629 0x7fc5a89dd5154895 0",
	"M=65 Kepler vit/spill":    "{480 132208 0 0 0 218 20 30464 90542 32459 15744128 4456114 6295 15406 0 0 0 2234537 2933184 277148} 1257/11629 0x7fc5a89dd5154895 0",
	"M=257 Fermi msv/shared":   "{512 43086 21072 16806 0 938 20 122624 0 0 0 99848 0 0 0 0 0 922392 1242752 81922} 0/0 0x146d85fd5beeceb2 4",
	"M=257 Fermi msv/global":   "{512 43086 13170 13350 0 154 20 22272 9658 0 1236224 226422 0 0 0 0 0 798552 1107072 79438} 0/0 0x146d85fd5beeceb2 4",
	"M=257 Fermi vit/shared":   "{256 548244 312029 117737 0 2308 20 297984 0 0 0 257328 0 73901 0 0 0 12361528 13827008 1054239} 1804/57665 0x721dc77464414b9f 0",
	"M=257 Fermi vit/global":   "{256 548244 182141 117737 0 308 20 41984 179608 0 22989824 7419440 0 73901 0 0 0 12297544 13763008 1101959} 1804/57665 0x721dc77464414b9f 0",
	"M=257 Fermi vit/spill":    "{256 548244 10824 10824 0 308 20 41984 426290 157475 74721920 24122120 0 73901 0 0 0 12297544 13763008 1227886} 1804/57665 0x721dc77464414b9f 0",
	"M=257 Kepler msv/shared":  "{960 43086 15804 14562 0 1624 20 210432 0 0 0 186536 4390 0 0 0 0 920124 1024320 79486} 0/0 0x146d85fd5beeceb2 4",
	"M=257 Kepler msv/global":  "{960 43086 7902 8082 0 154 20 22272 9658 0 1236224 226422 4390 0 0 0 0 687924 769920 73292} 0/0 0x146d85fd5beeceb2 4",
	"M=257 Kepler vit/shared":  "{240 548244 301205 106913 0 2183 20 281984 0 0 0 241332 9020 73901 0 0 0 12130225 13130272 1041486} 1804/57665 0x721dc77464414b9f 0",
	"M=257 Kepler vit/global":  "{450 548244 171317 106913 0 308 20 41984 179608 0 22989824 7419440 9020 73901 0 0 0 12070240 13070272 1089331} 1804/57665 0x721dc77464414b9f 0",
	"M=257 Kepler vit/spill":   "{480 548244 0 0 0 308 20 41984 426290 157475 74721920 24122120 9020 73901 0 0 0 12070240 13070272 1215258} 1804/57665 0x721dc77464414b9f 0",
	"M=1056 Fermi msv/shared":  "{256 135204 67104 50084 0 3347 20 430976 0 0 0 406700 0 0 0 0 0 3603744 3857760 255759} 0/0 0xd036ee2169dbf031 4",
	"M=1056 Fermi msv/global":  "{512 135204 36348 37028 0 163 20 23424 38483 0 4925824 985004 0 0 0 0 0 3096384 3338080 247246} 0/0 0xd036ee2169dbf031 4",
	"M=1056 Fermi vit/shared":  "",
	"M=1056 Fermi vit/global":  "{96 1952872 644343 403899 0 314 20 42752 694292 0 88869376 31039368 0 269595 0 0 0 48596982 49073408 3965335} 1837/208974 0x5876a1247cbaa712 0",
	"M=1056 Fermi vit/spill":   "{256 1952872 11022 11022 0 314 20 42752 1638391 588673 285064192 96712320 0 269595 0 0 0 48596982 49073408 4471909} 1837/208974 0x5876a1247cbaa712 0",
	"M=1056 Kepler msv/shared": "{240 135204 61512 43676 0 3148 20 405504 0 0 0 381332 4660 0 0 0 0 3454602 3467392 248220} 0/0 0xd036ee2169dbf031 4",
	"M=1056 Kepler msv/global": "{660 135204 30756 31436 0 163 20 23424 38483 0 4925824 985004 4660 0 0 0 0 2978952 2980192 240722} 0/0 0xd036ee2169dbf031 4",
	"M=1056 Kepler vit/shared": "",
	"M=1056 Kepler vit/global": "{90 1952872 633321 392877 0 314 20 42752 694292 0 88869376 31039368 9185 269595 0 0 0 48365520 48368000 3952476} 1837/208974 0x5876a1247cbaa712 0",
	"M=1056 Kepler vit/spill":  "{480 1952872 0 0 0 314 20 42752 1638391 588673 285064192 96712320 9185 269595 0 0 0 48365520 48368000 4459050} 1837/208974 0x5876a1247cbaa712 0",
}

func TestKernelStatsPinnedAtChunkEdges(t *testing.T) {
	variants := []struct {
		mode    simt.Mode
		workers int
	}{
		{simt.ModeCycleAccurate, 2}, {simt.ModeCycleAccurate, 8},
		{simt.ModeFast, 1}, {simt.ModeFast, 2}, {simt.ModeFast, 8},
	}
	for _, m := range chunkEdges {
		up := edgeUpload(t, m)
		for _, spec := range []simt.DeviceSpec{simt.GTX580(), simt.TeslaK40()} {
			for _, c := range edgeConfigs {
				key := fmt.Sprintf("M=%d %v %v", m, spec.Arch, c)
				dev, ddb, dmp, dvp := up(spec)
				base, ok := edgeSearch(t, &Searcher{Dev: dev, HostWorkers: 1}, c, dmp, dvp, ddb)
				got := ""
				if ok {
					got = base.String()
				}
				want, pinned := edgePins[key]
				if !pinned || got != want {
					t.Errorf("%s\n got %q\nwant %q", key, got, want)
				}
				if !ok {
					continue
				}
				for _, v := range variants {
					dev, ddb, dmp, dvp := up(spec)
					dev.Mode = v.mode
					o, _ := edgeSearch(t, &Searcher{Dev: dev, HostWorkers: v.workers}, c, dmp, dvp, ddb)
					if v.mode == simt.ModeFast {
						// Fast mode records nothing but the warps it ran.
						if o.stats != (simt.KernelStats{WarpsExecuted: base.stats.WarpsExecuted}) {
							t.Errorf("%s fast/%d workers recorded %v", key, v.workers, o.stats)
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
}

// TestSharedRacesPinnedAtChunkEdges pins one race-tracked launch per
// kernel. Under MemShared, warp 0 stores the MSV emission table that
// its block mates then read with no barrier between, so the tracker
// counts those reads; the counts fix the order and extent of every
// span the kernels note.
func TestSharedRacesPinnedAtChunkEdges(t *testing.T) {
	const (
		wantMSV = "{512 21764 10416 9024 0 360 20 48640 0 0 0 26112 0 0 0 0 51545 317380 634240 41584} 0/0 0xe5546f85adb485ad 4"
		wantVit = "{256 132208 75838 30694 0 730 20 96000 0 0 0 66504 0 15406 0 0 0 2409539 3433024 254896} 1257/11629 0x7fc5a89dd5154895 0"
	)
	up := edgeUpload(t, 65)
	dev, ddb, dmp, dvp := up(simt.GTX580())
	s := &Searcher{Dev: dev, DetectRaces: true, HostWorkers: 2}
	msv, _ := edgeSearch(t, s, edgeConfig{false, MemShared}, dmp, dvp, ddb)
	vit, _ := edgeSearch(t, s, edgeConfig{true, MemShared}, dmp, dvp, ddb)
	if got := msv.String(); got != wantMSV {
		t.Errorf("MSV\n got %q\nwant %q", got, wantMSV)
	}
	if got := vit.String(); got != wantVit {
		t.Errorf("Viterbi\n got %q\nwant %q", got, wantVit)
	}
	if msv.stats.SharedRaces == 0 {
		t.Error("the MSV table reads raced nothing; the pin checks nothing")
	}
}

// TestSharedFlipScoresPinnedAtChunkEdges is TestSharedFlipScoresPinned
// at every chunk edge and memory configuration: the same seeded
// flip@shared= overlay on the non-ECC GTX 580 must corrupt the same
// scores, in both simulator modes.
func TestSharedFlipScoresPinnedAtChunkEdges(t *testing.T) {
	pins := map[string]string{
		"M=1 msv/shared":    "0xe943d8e6f2cda43e",
		"M=1 msv/global":    "0xe943d8e6f2cda43e",
		"M=1 vit/shared":    "0x694943d0ca63ebbe",
		"M=1 vit/global":    "0x694943d0ca63ebbe",
		"M=1 vit/spill":     "0x983f2618eb275f89",
		"M=31 msv/shared":   "0x4a5762ad22e82f4b",
		"M=31 msv/global":   "0xf739364a7a1bce58",
		"M=31 vit/shared":   "0xd2c363603efbfb04",
		"M=31 vit/global":   "0xd2c363603efbfb04",
		"M=31 vit/spill":    "0xd2c363603efbfb04",
		"M=32 msv/shared":   "0x4776fac1002f6a6e",
		"M=32 msv/global":   "0x4776fac1002f6a6e",
		"M=32 vit/shared":   "0x37343e62d32b507b",
		"M=32 vit/global":   "0x89b8af0e6ca78fd5",
		"M=32 vit/spill":    "0x7f32ee43497e0fd8",
		"M=33 msv/shared":   "0xe63b2ab6596f3e09",
		"M=33 msv/global":   "0xe63b2ab6596f3e09",
		"M=33 vit/shared":   "0x9fd101ca98b14842",
		"M=33 vit/global":   "0xeaf58371eb2f76eb",
		"M=33 vit/spill":    "0xc344d401865fc8bd",
		"M=64 msv/shared":   "0x5adb18b5a89967c7",
		"M=64 msv/global":   "0x5adb18b5a89967c7",
		"M=64 vit/shared":   "0x161d804397afbc52",
		"M=64 vit/global":   "0x161d804397afbc52",
		"M=64 vit/spill":    "0xa7270158d03a91fd",
		"M=65 msv/shared":   "0x6df4abf47beaec55",
		"M=65 msv/global":   "0x6df4abf47beaec55",
		"M=65 vit/shared":   "0x20a44569da71ffd3",
		"M=65 vit/global":   "0x20a44569da71ffd3",
		"M=65 vit/spill":    "0x7fc5a89dd5154895",
		"M=257 msv/shared":  "0xc40fdf61cb52c7a0",
		"M=257 msv/global":  "0xc40fdf61cb52c7a0",
		"M=257 vit/shared":  "0xe3293ca43daf5a06",
		"M=257 vit/global":  "0x8705287f01e3d9fe",
		"M=257 vit/spill":   "0x721dc77464414b9f",
		"M=1056 msv/shared": "0x78e8befa6f7ae22d",
		"M=1056 msv/global": "0x78e8befa6f7ae22d",
		"M=1056 vit/global": "0x6911ab892c1033e3",
		"M=1056 vit/spill":  "0x5876a1247cbaa712",
	}
	corrupted := 0
	for _, m := range chunkEdges {
		up := edgeUpload(t, m)
		for _, c := range edgeConfigs {
			key := fmt.Sprintf("M=%d %v", m, c)
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
			if got := fmt.Sprintf("%#x", sums[0]); got != pins[key] {
				t.Errorf("%s: flipped checksum %s, want %s", key, got, pins[key])
			}
		}
	}
	if corrupted < len(chunkEdges) {
		t.Errorf("the overlay corrupted only %d launches; the pins check little", corrupted)
	}
}
