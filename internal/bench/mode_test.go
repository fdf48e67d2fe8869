package bench

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// TestModeEquivalenceQuick pins fast mode's contract end to end: the
// same streamed 2-device search — clean, under a fault schedule, with
// silent-corruption injection repaired by DMR, and crashed then
// resumed from its journal — must report a hit list bit-identical to
// a cycle-accurate clean run.
func TestModeEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness simulation is slow")
	}
	cfg := QuickConfig()
	const m = 120
	h, err := cfg.model(m)
	if err != nil {
		t.Fatal(err)
	}
	abc := alphabet.New()
	dbSpec := Envnr.specMinSeqs(cfg.MSVCellBudget, m, cfg.Seed+404, 48)
	dbSpec.HomologFrac = 0.05
	data, err := workload.Generate(dbSpec, h, abc)
	if err != nil {
		t.Fatal(err)
	}
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, data, abc); err != nil {
		t.Fatal(err)
	}
	opts := pipeline.DefaultOptions()
	opts.Calibration = stats.CalibrateOptions{N: 64, L: 100, Seed: cfg.Seed, TailMass: 0.04}
	pl, err := pipeline.New(h, int(data.MeanLen()), opts)
	if err != nil {
		t.Fatal(err)
	}
	batchResidues := data.TotalResidues() / 8
	if batchResidues < 1 {
		batchResidues = 1
	}

	run := func(mode simt.Mode, faultSpec string, sc pipeline.StreamConfig) (*pipeline.Result, error) {
		c := cfg
		c.Mode = mode
		sys := c.newSystem(gtx580(), 2)
		if faultSpec != "" {
			plan, err := faults.Parse(faultSpec, cfg.Seed+505, 2, 0)
			if err != nil {
				return nil, err
			}
			if err := sys.ApplyFaults(plan.Devices); err != nil {
				return nil, err
			}
		}
		sc.BatchResidues = batchResidues
		return pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(fasta.Bytes()), sc)
	}

	clean, err := run(simt.ModeCycleAccurate, "", pipeline.StreamConfig{Policy: dispatch.Policy{MaxRetries: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Hits) == 0 {
		t.Fatal("cycle-accurate clean run found no hits; workload too weak to validate identity")
	}

	t.Run("clean", func(t *testing.T) {
		res, err := run(simt.ModeFast, "", pipeline.StreamConfig{Policy: dispatch.Policy{MaxRetries: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if !identicalHits(clean, res) {
			t.Error("fast clean run diverged from the cycle-accurate run")
		}
	})

	t.Run("faulted", func(t *testing.T) {
		res, err := run(simt.ModeFast, "dev0:at=0,at=2;dev1:dead", pipeline.StreamConfig{Policy: dispatch.Policy{MaxRetries: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if !identicalHits(clean, res) {
			t.Error("fast faulted run diverged from the cycle-accurate clean run")
		}
	})

	t.Run("sdc-dmr", func(t *testing.T) {
		res, err := run(simt.ModeFast, "dev0:flip@launch=0",
			pipeline.StreamConfig{Policy: dispatch.Policy{MaxRetries: 10}, Verify: pipeline.VerifyDMR})
		if err != nil {
			t.Fatal(err)
		}
		if !identicalHits(clean, res) {
			t.Error("fast DMR-repaired run diverged from the cycle-accurate clean run")
		}
	})

	t.Run("crash-resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "mode.ckpt")
		_, err := run(simt.ModeFast, "", pipeline.StreamConfig{
			Checkpoint: &pipeline.CheckpointConfig{
				Path:  path,
				Crash: checkpoint.CrashAfter(3, checkpoint.WindowAfterSync),
			},
		})
		if !errors.Is(err, checkpoint.ErrInjectedCrash) {
			t.Fatalf("crashed run returned %v, want injected crash", err)
		}
		res, err := run(simt.ModeFast, "", pipeline.StreamConfig{
			Checkpoint: &pipeline.CheckpointConfig{Path: path, Resume: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !identicalHits(clean, res) {
			t.Error("fast resumed run diverged from the cycle-accurate clean run")
		}
	})
}

// identicalHits reports whether two results carry bit-identical hit
// lists (same order, identities, scores and E-values).
func identicalHits(a, b *pipeline.Result) bool {
	if len(a.Hits) != len(b.Hits) {
		return false
	}
	for i := range a.Hits {
		x, y := a.Hits[i], b.Hits[i]
		if x.Index != y.Index || x.Name != y.Name ||
			x.MSVBits != y.MSVBits || x.VitBits != y.VitBits || x.FwdBits != y.FwdBits ||
			x.PValue != y.PValue || x.EValue != y.EValue {
			return false
		}
	}
	return true
}
