package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// agreeInput is one database of the agreement table in the three forms
// the entry points take.
type agreeInput struct {
	db            *seq.Database
	fasta         []byte
	batchResidues int64
}

func newAgreeInput(t *testing.T, db *seq.Database) agreeInput {
	t.Helper()
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		t.Fatal(err)
	}
	return agreeInput{db: db, fasta: fasta.Bytes(), batchResidues: db.TotalResidues()/5 + 1}
}

// entryPoints is every Run* entry point of the package, each searching
// the same input its own way: whole database or streamed, host, one
// device, several devices, a resident database, an in-process cluster
// (one CPU worker, one device worker), and a hot standby finishing a
// killed primary's run.
var entryPoints = []struct {
	name string
	run  func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error)
}{
	{"RunCPU", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		return pl.RunCPU(in.db)
	}},
	{"RunGPU", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		return pl.RunGPU(simt.NewDevice(simt.GTX580()), gpu.MemAuto, in.db)
	}},
	{"RunMultiGPU", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		return pl.RunMultiGPU(simt.NewSystem(simt.GTX580(), 3), gpu.MemAuto, in.db)
	}},
	{"RunCPUStream", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		return pl.RunCPUStream(bytes.NewReader(in.fasta), 7)
	}},
	{"RunMultiGPUStream", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		return pl.RunMultiGPUStream(simt.NewSystem(simt.GTX580(), 2), gpu.MemAuto, bytes.NewReader(in.fasta),
			StreamConfig{BatchResidues: in.batchResidues})
	}},
	{"RunMultiGPUStreamContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		// Journaled and guarded: the clean results must pass every guard
		// and merge the same from a journaling commit path.
		return pl.RunMultiGPUStreamContext(context.Background(), simt.NewSystem(simt.GTX580(), 2), gpu.MemAuto,
			bytes.NewReader(in.fasta), StreamConfig{BatchResidues: in.batchResidues, Verify: VerifyDMR,
				Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}})
	}},
	{"RunResidentStreamContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		rdb, err := LoadResidentDB("agree", bytes.NewReader(in.fasta), abc, in.batchResidues)
		if err != nil {
			return nil, err
		}
		return pl.RunResidentStreamContext(context.Background(), simt.NewSystem(simt.GTX580(), 2), gpu.MemAuto,
			rdb, StreamConfig{})
	}},
	{"RunResidentCPUContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		rdb, err := LoadResidentDB("agree", bytes.NewReader(in.fasta), abc, in.batchResidues)
		if err != nil {
			return nil, err
		}
		return pl.RunResidentCPUContext(context.Background(), rdb)
	}},
	{"RunClusterStreamContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		cfg := StreamConfig{BatchResidues: in.batchResidues}
		deviceNode := pl.NewWorkerServer(cfg, 0, "device-node", 1,
			pl.ClusterExecGPU(simt.NewSystem(simt.GTX580(), 1), gpu.MemAuto))
		return pl.RunClusterStreamContext(context.Background(), bytes.NewReader(in.fasta), cfg,
			ClusterConfig{Workers: append(cpuWorkers(pl, cfg, 1), InProcessWorkerSpec(deviceNode))})
	}},
	{"RunStandbyClusterStreamContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		cfg := StreamConfig{BatchResidues: in.batchResidues,
			Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}}
		// The epoch fence lives in the servers, so primary and standby
		// reach the same two.
		specs := make([]cluster.WorkerSpec, 2)
		for i := range specs {
			specs[i] = InProcessWorkerSpec(pl.NewWorkerServer(cfg, 0, fmt.Sprintf("w%d", i), 1, pl.ClusterExecCPU()))
		}
		// The primary dies at its second assignment (a one-batch stream
		// it finishes instead); the standby finds its journal, is handed
		// the lease at once, and completes the run at epoch 2.
		_, err := pl.RunClusterStreamContext(context.Background(), bytes.NewReader(in.fasta), cfg,
			ClusterConfig{Workers: specs, Inject: clusterFaults(t, "coord:kill=2", 1, len(specs))})
		if err != nil && !errors.Is(err, cluster.ErrInjectedCoordinatorKill) {
			return nil, fmt.Errorf("primary: %w", err)
		}
		acquire, grantLease := chanLeadership()
		grantLease()
		return pl.RunStandbyClusterStreamContext(context.Background(), bytes.NewReader(in.fasta), cfg,
			ClusterConfig{Workers: specs},
			StandbyClusterConfig{Acquire: acquire, PingEvery: 10 * time.Millisecond, Poll: 5 * time.Millisecond})
	}},
}

// TestEntryPointsAgree: one cascade serves every entry point, so all of
// them must report bit-identical hits and identical stage In/Out/Cells
// on the same model and database — whatever the database does to the
// cascade (no MSV survivors, so no Viterbi launch; a one-sequence
// batch) and whatever the options ask of it.
func TestEntryPointsAgree(t *testing.T) {
	h, err := workload.Model("agree", 60, abc, 41)
	if err != nil {
		t.Fatal(err)
	}
	const targetLen = 150
	base, err := New(h, targetLen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	background, _, _ := clusteredDB(t, h, 60, 0, 42)
	homologs, lo, _ := clusteredDB(t, h, 40, 8, 43)
	one := seq.NewDatabase("one")
	one.Add(homologs.Seqs[lo])
	// Background sequences the MSV filter rejects, so that the whole
	// database — and so every batch of it — has no survivor.
	probe, err := base.RunCPU(background)
	if err != nil {
		t.Fatal(err)
	}
	quiet := seq.NewDatabase("quiet")
	for i, r := range probe.Extra.(*CPUExtra).MSVResults {
		if !base.msvPass(r) && quiet.NumSeqs() < 12 {
			quiet.Add(background.Seqs[i])
		}
	}

	cases := []struct {
		name string
		db   *seq.Database
		opts func(o *Options)
	}{
		{"background", background, func(*Options) {}},
		{"homologs", homologs, func(*Options) {}},
		{"no-msv-survivors", quiet, func(*Options) {}},
		{"one-sequence", one, func(*Options) {}},
		{"skip-forward", homologs, func(o *Options) { o.SkipForward = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := *base // same model and calibration, this case's options
			c.opts(&pl.Opts)
			in := newAgreeInput(t, c.db)
			var want *Result
			for _, ep := range entryPoints {
				got, err := ep.run(t, &pl, in)
				if err != nil {
					t.Fatalf("%s: %v", ep.name, err)
				}
				if want == nil {
					want = got // RunCPU, the baseline configuration
					continue
				}
				sameHits(t, ep.name, want, got)
			}
			switch c.name {
			case "homologs", "one-sequence":
				if len(want.Hits) == 0 {
					t.Error("no hits: the case does not reach hit assembly")
				}
			case "no-msv-survivors":
				if want.MSV.Out != 0 || want.Viterbi.Cells != 0 {
					t.Errorf("MSV passed %d sequences, Viterbi saw %d cells; want none", want.MSV.Out, want.Viterbi.Cells)
				}
			case "skip-forward":
				if want.Forward.In == 0 || want.Forward.Out != 0 || want.Forward.Cells != 0 {
					t.Errorf("skipped Forward stage reports %+v", want.Forward)
				}
			}
		})
	}
}

// TestRunGPUKernelStatsPinned holds RunGPU's modelled counters to the
// values the parent commit produced, launch for launch: the device
// backend now uploads the profiles before the database (the
// DeviceWorker order every streamed batch always used), and a move in
// upload order, plan or kernel must not move the cost model.
func TestRunGPUKernelStatsPinned(t *testing.T) {
	pins := []struct {
		m        int
		mem      gpu.MemConfig
		msv, vit string // fmt.Sprint of the launch's simt.KernelStats; "" = the plan is refused
	}{
		{48, gpu.MemShared,
			"{960 266890 50792 26966 0 2442 65 320896 0 0 0 44368 63490 0 0 0 0 1957104 2568480 410645}",
			"{480 51270 23188 8998 0 461 7 59904 0 0 0 46060 2965 6584 0 0 0 806211 1044928 93473}"},
		{48, gpu.MemGlobal,
			"{960 266890 25396 25526 0 2142 65 282496 28738 0 3678464 618592 63490 0 0 0 0 1913004 2512800 412247}",
			"{480 51270 13700 8998 0 101 7 13824 12857 0 1645696 455884 2965 6584 0 0 0 794811 1033408 96482}"},
		{400, gpu.MemShared,
			"{960 763202 305188 162799 0 4261 65 553728 0 0 0 297164 58690 0 0 0 0 14547760 15114016 1294205}",
			"{120 1515036 824700 301944 0 3486 8 447232 0 0 0 375268 16765 214454 0 0 0 34910005 36164416 2876393}"},
		{400, gpu.MemGlobal,
			"{960 763202 152594 153439 0 1981 65 261888 186151 0 23827328 4703644 58690 0 0 0 0 14186860 14741536 1316122}",
			"{300 1515036 475988 301944 0 561 8 72832 492418 0 63029504 21461508 16765 214454 0 0 0 34816765 36070816 3017174}"},
		{1056, gpu.MemShared, "", ""}, // does not fit shared memory on a K40
		{1056, gpu.MemGlobal,
			"{660 1525197 347061 349271 0 1779 65 236032 434034 0 55556352 11113588 52585 0 0 0 0 33443554 33447584 2709992}",
			"{90 8556788 2756338 1725868 0 1305 7 167936 2956181 0 378391168 131996828 39060 1209562 0 0 0 209467484 209468352 17245109}"},
	}
	pls := map[int]*Pipeline{}
	dbs := map[int]*seq.Database{}
	for _, pin := range pins {
		pl, db := pls[pin.m], dbs[pin.m]
		if pl == nil {
			h, err := workload.Model("pin", pin.m, abc, int64(pin.m))
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.EnvnrLike(0.00001, 41) // 65 sequences
			spec.HomologFrac = 0.1
			if db, err = workload.Generate(spec, h, abc); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.SkipForward = true
			opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 1, TailMass: 0.04}
			if pl, err = New(h, int(db.MeanLen()), opts); err != nil {
				t.Fatal(err)
			}
			pls[pin.m], dbs[pin.m] = pl, db
		}
		res, err := pl.RunGPU(simt.NewDevice(simt.TeslaK40()), pin.mem, db)
		if pin.msv == "" {
			if err == nil {
				t.Errorf("M=%d %v: ran, want the plan refused as at the parent", pin.m, pin.mem)
			}
			continue
		}
		if err != nil {
			t.Fatalf("M=%d %v: %v", pin.m, pin.mem, err)
		}
		extra := res.Extra.(*GPUExtra)
		if got := fmt.Sprint(extra.MSVReport.Launch.Stats); got != pin.msv {
			t.Errorf("M=%d %v MSV stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.msv)
		}
		if got := fmt.Sprint(extra.VitReport.Launch.Stats); got != pin.vit {
			t.Errorf("M=%d %v Viterbi stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.vit)
		}
	}
}

// TestRunGPUKernelStatsPinnedFermi is TestRunGPUKernelStatsPinned on
// the GTX 580, whose row maxima go through the shared-memory scratch
// reduction, with a fast-mode run of every launch beside it: the same
// hits and the warps it ran, nothing else recorded.
func TestRunGPUKernelStatsPinnedFermi(t *testing.T) {
	pins := []struct {
		m        int
		mem      gpu.MemConfig
		msv, vit string // as in TestRunGPUKernelStatsPinned
	}{
		{48, gpu.MemShared,
			"{512 266890 126980 102482 0 2302 65 302976 0 0 0 27904 0 0 0 0 0 3536472 7418528 498719}",
			"{256 51270 26746 12556 0 485 7 62976 0 0 0 49100 0 6584 0 0 0 881689 1273408 97648}"},
		{48, gpu.MemGlobal,
			"{512 266890 101584 101714 0 2142 65 282496 28738 0 3678464 618592 0 0 0 0 0 3512952 7388832 501133}",
			"{256 51270 17258 12556 0 101 7 13824 12857 0 1645696 455884 0 6584 0 0 0 869529 1261120 100633}"},
		{400, gpu.MemShared,
			"{512 763202 375616 228859 0 3197 65 417536 0 0 0 162428 0 0 0 0 0 15858328 19447584 1370939}",
			"{128 1515036 844818 322062 0 3681 8 472192 0 0 0 400132 0 214454 0 0 0 35338699 37458208 2900059}"},
		{400, gpu.MemGlobal,
			"{512 763202 223022 223867 0 1981 65 261888 186151 0 23827328 4703644 0 0 0 0 0 15665848 19248928 1398288}",
			"{256 1515036 496106 322062 0 561 8 72832 492418 0 63029504 21461508 0 214454 0 0 0 35239243 37358368 3040645}"},
		{1056, gpu.MemShared, "", ""}, // the Viterbi tables do not fit a GTX 580's shared memory
		{1056, gpu.MemGlobal,
			"{512 1525197 410163 412373 0 1779 65 236032 434034 0 55556352 11113588 0 0 0 0 0 34768696 37486112 2783611}",
			"{96 8556788 2803210 1772740 0 1305 7 167936 2956181 0 378391168 131996828 0 1209562 0 0 0 210451796 212468160 17299793}"},
	}
	pls := map[int]*Pipeline{}
	dbs := map[int]*seq.Database{}
	for _, pin := range pins {
		pl, db := pls[pin.m], dbs[pin.m]
		if pl == nil {
			h, err := workload.Model("pin", pin.m, abc, int64(pin.m))
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.EnvnrLike(0.00001, 41)
			spec.HomologFrac = 0.1
			if db, err = workload.Generate(spec, h, abc); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.SkipForward = true
			opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 1, TailMass: 0.04}
			if pl, err = New(h, int(db.MeanLen()), opts); err != nil {
				t.Fatal(err)
			}
			pls[pin.m], dbs[pin.m] = pl, db
		}
		res, err := pl.RunGPU(simt.NewDevice(simt.GTX580()), pin.mem, db)
		if pin.msv == "" {
			if err == nil {
				t.Errorf("M=%d %v: ran, want the plan refused as at the parent", pin.m, pin.mem)
			}
			continue
		}
		if err != nil {
			t.Fatalf("M=%d %v: %v", pin.m, pin.mem, err)
		}
		extra := res.Extra.(*GPUExtra)
		msv, vit := extra.MSVReport.Launch.Stats, extra.VitReport.Launch.Stats
		if got := fmt.Sprint(msv); got != pin.msv {
			t.Errorf("M=%d %v MSV stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.msv)
		}
		if got := fmt.Sprint(vit); got != pin.vit {
			t.Errorf("M=%d %v Viterbi stats\n got %s\nwant %s", pin.m, pin.mem, got, pin.vit)
		}
		dev := simt.NewDevice(simt.GTX580())
		dev.Mode = simt.ModeFast
		fast, err := pl.RunGPU(dev, pin.mem, db)
		if err != nil {
			t.Fatalf("M=%d %v fast: %v", pin.m, pin.mem, err)
		}
		sameHits(t, fmt.Sprintf("M=%d %v fast", pin.m, pin.mem), res, fast)
		fx := fast.Extra.(*GPUExtra)
		if fx.MSVReport.Launch.Stats != (simt.KernelStats{WarpsExecuted: msv.WarpsExecuted}) ||
			fx.VitReport.Launch.Stats != (simt.KernelStats{WarpsExecuted: vit.WarpsExecuted}) {
			t.Errorf("M=%d %v fast mode recorded %v / %v", pin.m, pin.mem,
				fx.MSVReport.Launch.Stats, fx.VitReport.Launch.Stats)
		}
	}
}

// TestBatchModelledTimeIgnoresDeviceHistory is the assumption the
// replayed stream-scaling timeline (bench.StreamScaling) rests on: what
// a batch costs on the model depends on the batch alone, not on what
// its device ran before — at a size whose Viterbi rows stay in shared
// memory and at one where they spill to freshly allocated global
// memory.
func TestBatchModelledTimeIgnoresDeviceHistory(t *testing.T) {
	for _, m := range []int{400, 1056} {
		h, err := workload.Model("replay", m, abc, int64(m))
		if err != nil {
			t.Fatal(err)
		}
		db, _, _ := clusteredDB(t, h, 24, 4, 44)
		opts := DefaultOptions()
		opts.SkipForward = true
		opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 1, TailMass: 0.04}
		pl, err := New(h, int(db.MeanLen()), opts)
		if err != nil {
			t.Fatal(err)
		}
		spec := simt.GTX580()
		search := func(w *gpu.DeviceWorker, batch *seq.Database) []*simt.LaunchReport {
			filters := &deviceFilters{w: w}
			if _, err := pl.cascade(context.Background(), filters, nil, batch, nil); err != nil {
				t.Fatal(err)
			}
			return filters.launches()
		}
		batch, others := db.Slice(10, 20), []*seq.Database{db.Slice(0, 10), db.Slice(20, db.NumSeqs()), db}
		fresh := search(gpu.NewDeviceWorker(simt.NewDevice(spec), gpu.MemAuto, 0, pl.MSV, pl.Vit), batch)
		used := gpu.NewDeviceWorker(simt.NewDevice(spec), gpu.MemAuto, 0, pl.MSV, pl.Vit)
		for _, other := range others {
			search(used, other)
		}
		after := search(used, batch)
		if len(fresh) != 2 || len(after) != 2 {
			t.Fatalf("M=%d: %d and %d launches, want MSV and Viterbi from each", m, len(fresh), len(after))
		}
		for i := range fresh {
			if fresh[i].Stats != after[i].Stats {
				t.Errorf("M=%d launch %d: counters differ on a used device:\n%+v\n%+v", m, i, fresh[i].Stats, after[i].Stats)
			}
			if a, b := perf.GPUTime(spec, fresh[i]), perf.GPUTime(spec, after[i]); a != b {
				t.Errorf("M=%d launch %d: modelled %g s fresh, %g s on a used device", m, i, a, b)
			}
		}
	}
}
