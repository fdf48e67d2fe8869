package main

import (
	"bytes"
	"fmt"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// oneshotRun is one op of oneshot_cpu: everything `hmmsearch -engine
// cpu` does for one invocation, from the two input files' bytes to the
// tblout bytes. Set-up is inside the op because the CLI user re-pays
// it on every invocation.
type oneshotRun struct {
	setup, search time.Duration
	res           *pipeline.Result
	out           []byte
}

// oneshotOp is the op through the public calls a CLI makes.
func oneshotOp(abc *alphabet.Alphabet, hmmText, fasta []byte) (*oneshotRun, error) {
	t0 := time.Now()
	h, err := hmm.Read(bytes.NewReader(hmmText), abc)
	if err != nil {
		return nil, fmt.Errorf("read model: %w", err)
	}
	db, err := seq.ReadFASTA(bytes.NewReader(fasta), abc)
	if err != nil {
		return nil, fmt.Errorf("read database: %w", err)
	}
	pl, err := pipeline.New(h, int(db.MeanLen()), pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := pl.RunCPU(db)
	if err != nil {
		return nil, err
	}
	out, err := digest(h.Name, res)
	if err != nil {
		return nil, err
	}
	return &oneshotRun{setup: t1.Sub(t0), search: time.Since(t1), res: res, out: out}, nil
}

// oneshotStaged is the same op driven layer by layer under spans.
func oneshotStaged(abc *alphabet.Alphabet, hmmText, fasta []byte, rec *recorder, op int) (*oneshotRun, error) {
	root := rec.start(op, noSpan, layerOther, "oneshot_cpu op")
	defer rec.end(root)
	t0 := time.Now()

	s := rec.start(op, root, "hmm", "hmm.Read")
	h, err := hmm.Read(bytes.NewReader(hmmText), abc)
	if err == nil {
		err = h.Validate()
	}
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("read model: %w", err)
	}

	s = rec.start(op, root, "seq", "seq.ReadFASTA")
	db, err := seq.ReadFASTA(bytes.NewReader(fasta), abc)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("read database: %w", err)
	}

	s = rec.start(op, root, "profile", "profile.Config, NewMSVProfile, NewVitProfile")
	p := profile.Config(h)
	p.SetLength(int(db.MeanLen()))
	mp := profile.NewMSVProfile(p)
	vp := profile.NewVitProfile(p)
	rec.end(s)

	cal, _, err := calibrate(p, mp, vp, stats.DefaultCalibration(), false, rec, op, root)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()

	thr := pipeline.DefaultThresholds()
	eng := cpu.Engine{}
	res := &pipeline.Result{}

	s = rec.start(op, root, "cpu", "cpu.Engine.MSVAll")
	msvRes := eng.MSVAll(mp, db)
	rec.end(s)
	msvSurv, msvBits := survivors(msvRes, nil, cal.msv, thr.MSV)
	res.MSV = filterStats(db, len(msvSurv), p.M)

	sub := subDatabase(db, msvSurv)
	s = rec.start(op, root, "cpu", "cpu.Engine.ViterbiAll")
	vitRes := eng.ViterbiAll(vp, sub)
	rec.end(s)
	vitSurv, vitBits := survivors(vitRes, msvSurv, cal.vit, thr.Viterbi)
	res.Viterbi = filterStats(sub, len(vitSurv), p.M)

	forwardStage(p, db, vitSurv, msvBits, vitBits, cal.fwd, thr.Forward, res, rec, op, root)

	s = rec.start(op, root, "pipeline", "pipeline.WriteTblout")
	out, err := digest(h.Name, res)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	return &oneshotRun{setup: t1.Sub(t0), search: time.Since(t1), res: res, out: out}, nil
}

func runOneshot(cfg runConfig, traced bool) (*workloadResult, error) {
	abc := alphabet.New()
	q, err := newQuery("oneshot-query", cfg.sz.oneshotM, abc, subSeed(cfg.seed, seedOneshot, 0))
	if err != nil {
		return nil, err
	}
	tg, err := newTarget(workload.SwissprotLike(cfg.sz.oneshotScale, subSeed(cfg.seed, seedOneshot, 1)), q.h, abc)
	if err != nil {
		return nil, err
	}

	// The warm-up op is discarded from the timings and kept as the
	// reference: this workload's engine is the CPU engine, so the gate
	// checks that every later op, and the staged drive, repeat it.
	ref, err := oneshotOp(abc, q.text, tg.fasta)
	if err != nil {
		return nil, fmt.Errorf("oneshot_cpu reference: %w", err)
	}
	out := newResult()
	m := out.metrics

	// The modelled figure here is the paper's CPU baseline (a quad-core
	// i5 with SSE) over the op's exact filter cells — MSV and Viterbi, as
	// in the paper's speedup figures: simulated time, a function of the
	// cell mix alone.
	base := perf.BaselineI5()
	filterCells := ref.res.MSV.Cells + ref.res.Viterbi.Cells
	modelled := perf.CPUTimeMSV(base, ref.res.MSV.Cells) + perf.CPUTimeVit(base, ref.res.Viterbi.Cells)
	cells := float64(totalCells(ref.res))

	if !traced {
		timedLoop(cfg.window, 2, func() {
			r, err := oneshotOp(abc, q.text, tg.fasta)
			if err == nil {
				err = sameOutput("oneshot_cpu", r.out, ref.out)
			}
			out.check(err)
			if err != nil {
				return
			}
			total := r.setup + r.search
			m.add("setup_s", "s", r.setup.Seconds())
			m.add("search_wall_s", "s", r.search.Seconds())
			m.add("time_to_result_s", "s", total.Seconds())
			m.add("cells_per_s", "1/s", cells/r.search.Seconds())
			// One invocation is one query and one whole-database batch.
			m.add("qps", "1/s", 1/total.Seconds())
			m.add("batches_per_s", "1/s", 1/r.search.Seconds())
		})
		if s, ok := m["time_to_result_s"]; ok {
			m.add("query_p50_s", "s", median(s.Vals))
			m.add("query_p90_s", "s", percentile(s.Vals, 0.9))
			m.add("modelled_gcups", "Gcell/s", float64(filterCells)/modelled/1e9)
		}
		return out, nil
	}

	rec := newRecorder()
	tw, ok := tracedPass(m, cfg.tracedOps,
		func(op int) (float64, bool) {
			r, err := oneshotStaged(abc, q.text, tg.fasta, rec, op)
			if err == nil {
				err = sameOutput("oneshot_cpu staged", r.out, ref.out)
			}
			out.check(err)
			if err != nil {
				return 0, false
			}
			return (r.setup + r.search).Seconds(), true
		},
		func() (float64, int, bool) {
			u, err := oneshotOp(abc, q.text, tg.fasta)
			if err == nil {
				err = sameOutput("oneshot_cpu", u.out, ref.out)
			}
			out.check(err)
			if err != nil {
				return 0, 0, false
			}
			stageRows(m, u.res, u.search, 1)
			return (u.setup + u.search).Seconds(), 1, true
		})
	if !ok {
		return out, nil
	}
	if err := outputRows(m, q.h.Name, ref.res); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	out.trace = traceRows(m, "oneshot_cpu", spans, budget(spans, tw.ops), tw, "")
	return out, nil
}
