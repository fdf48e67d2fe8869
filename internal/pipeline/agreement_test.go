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
	{"RunResidentStreamContext/host", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		rdb, err := LoadResidentDB("agree", bytes.NewReader(in.fasta), abc, in.batchResidues)
		if err != nil {
			return nil, err
		}
		return pl.RunResidentStreamContext(context.Background(), nil, gpu.MemAuto, rdb, StreamConfig{})
	}},
	{"RunClusterStreamContext", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
		cfg := StreamConfig{BatchResidues: in.batchResidues}
		deviceNode := pl.NewWorkerServer(cfg, 0, "device-node", 1,
			pl.ClusterExecGPU(simt.NewSystem(simt.GTX580(), 1), gpu.MemAuto))
		return pl.RunClusterStreamContext(context.Background(), bytes.NewReader(in.fasta), cfg,
			ClusterConfig{Workers: append(cpuWorkers(pl, cfg, 1), InProcessWorkerSpec(deviceNode))})
	}},
	{"RunClusterStreamContext (standby)", func(t *testing.T, pl *Pipeline, in agreeInput) (*Result, error) {
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
		return pl.RunClusterStreamContext(context.Background(), bytes.NewReader(in.fasta), cfg,
			ClusterConfig{Workers: specs,
				Standby: &cluster.Lease{Acquire: acquire, Poll: 5 * time.Millisecond}})
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
func TestRunGPUKernelStatsPinned(t *testing.T) { runGPUPinned(t, simt.TeslaK40(), "K40", false) }

// TestRunGPUKernelStatsPinnedFermi is TestRunGPUKernelStatsPinned on
// the GTX 580, whose row maxima go through the shared-memory scratch
// reduction, with a fast-mode run of every launch beside it: the same
// hits and the warps it ran, nothing else recorded.
func TestRunGPUKernelStatsPinnedFermi(t *testing.T) { runGPUPinned(t, simt.GTX580(), "GTX580", true) }

// runGPUPinned runs RunGPU on spec at three model sizes in shared and
// global memory, and holds every launch's counters, or the refused
// plan (M = 1056 does not fit shared memory), to the test's table.
func runGPUPinned(t *testing.T, spec simt.DeviceSpec, name string, fast bool) {
	var tab pinTable
	for _, m := range []int{48, 400, 1056} {
		h, err := workload.Model("pin", m, abc, int64(m))
		if err != nil {
			t.Fatal(err)
		}
		dbSpec := workload.EnvnrLike(0.00001, 41) // 65 sequences
		dbSpec.HomologFrac = 0.1
		db, err := workload.Generate(dbSpec, h, abc)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.SkipForward = true
		opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: 1, TailMass: 0.04}
		pl, err := New(h, int(db.MeanLen()), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mem := range []gpu.MemConfig{gpu.MemShared, gpu.MemGlobal} {
			pin := fmt.Sprintf("M=%d/%s/%v", m, name, mem)
			res, err := pl.RunGPU(simt.NewDevice(spec), mem, db)
			if err != nil {
				t.Logf("%s: %v", pin, err)
				tab.add(pin, "refused", "")
				continue
			}
			extra := res.Extra.(*GPUExtra)
			msv, vit := extra.MSVReport.Launch.Stats, extra.VitReport.Launch.Stats
			msv.EachCounter(func(c string, v int64) { tab.add(pin+"/msv", c, v) })
			vit.EachCounter(func(c string, v int64) { tab.add(pin+"/vit", c, v) })
			if !fast {
				continue
			}
			dev := simt.NewDevice(spec)
			dev.Mode = simt.ModeFast
			fres, err := pl.RunGPU(dev, mem, db)
			if err != nil {
				t.Fatalf("%s fast: %v", pin, err)
			}
			sameHits(t, pin+" fast", res, fres)
			fx := fres.Extra.(*GPUExtra)
			if fx.MSVReport.Launch.Stats != (simt.KernelStats{WarpsExecuted: msv.WarpsExecuted}) ||
				fx.VitReport.Launch.Stats != (simt.KernelStats{WarpsExecuted: vit.WarpsExecuted}) {
				t.Errorf("%s fast mode recorded %v / %v", pin, &fx.MSVReport.Launch.Stats, &fx.VitReport.Launch.Stats)
			}
		}
	}
	tab.check(t)
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
