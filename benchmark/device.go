package main

import (
	"bytes"
	"fmt"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
)

// lightCalibration is the figure harness's calibration for filter-only
// runs: enough for stable pass fractions, and cheap, so that set-up
// does not hide the kernels this workload is about.
func lightCalibration() stats.CalibrateOptions {
	return stats.CalibrateOptions{N: 64, L: 100, Seed: 1, TailMass: 0.04}
}

// devicePoint is one model size of the sweep, ready to search.
type devicePoint struct {
	pl *pipeline.Pipeline
	db *seq.Database
}

// deviceRef is what one size's op must reproduce: the CPU engine's
// output and its per-sequence MSV scores.
type deviceRef struct {
	out      []byte
	msvCheck uint64
	cells    int64
}

// modelled is one size's simulated outcome; two ops of one commit must
// agree on it exactly.
type modelled struct {
	msv, vit simt.KernelStats
	seconds  float64
}

func deviceOptions() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.SkipForward = true
	opts.Calibration = lightCalibration()
	return opts
}

// deviceSetup is what must happen before the sweep can search: parse
// each model and database, build and calibrate each pipeline. Packing
// and upload happen inside RunGPU and so count as search.
func deviceSetup(abc *alphabet.Alphabet, queries []*query, targets []*target) ([]devicePoint, error) {
	points := make([]devicePoint, len(queries))
	for i := range queries {
		h, err := hmm.Read(bytes.NewReader(queries[i].text), abc)
		if err != nil {
			return nil, fmt.Errorf("read model: %w", err)
		}
		db, err := seq.ReadFASTA(bytes.NewReader(targets[i].fasta), abc)
		if err != nil {
			return nil, fmt.Errorf("read database: %w", err)
		}
		pl, err := pipeline.New(h, int(db.MeanLen()), deviceOptions())
		if err != nil {
			return nil, err
		}
		points[i] = devicePoint{pl: pl, db: db}
	}
	return points, nil
}

// devicePointOp searches one size on a fresh cycle-accurate K40 through
// the public call.
func devicePointOp(pt devicePoint, name string) (res *pipeline.Result, out []byte, msvCheck uint64, mod modelled, err error) {
	dev := simt.NewDevice(simt.TeslaK40())
	res, err = pt.pl.RunGPU(dev, gpu.MemAuto, pt.db)
	if err != nil {
		return nil, nil, 0, mod, err
	}
	out, err = digest(name, res)
	if err != nil {
		return nil, nil, 0, mod, err
	}
	extra := res.Extra.(*pipeline.GPUExtra)
	return res, out, integrity.Checksum(extra.MSVReport.Results), modelledOf(dev.Spec, extra.MSVReport, extra.VitReport), nil
}

func modelledOf(spec simt.DeviceSpec, msv, vit *gpu.SearchReport) modelled {
	mod := modelled{msv: msv.Launch.Stats, seconds: perf.GPUTime(spec, msv.Launch)}
	if vit != nil {
		mod.vit = vit.Launch.Stats
		mod.seconds += perf.GPUTime(spec, vit.Launch)
	}
	return mod
}

// devicePointStaged is the same search driven through gpu.Upload* and
// the Searcher's two kernels under spans. It makes the device calls
// RunGPU makes, in RunGPU's order, so the modelled counters agree.
func devicePointStaged(pt devicePoint, name string, rec *recorder, op, parent int) (res *pipeline.Result, out []byte, msvCheck uint64, mod modelled, err error) {
	pl, db := pt.pl, pt.db
	dev := simt.NewDevice(simt.TeslaK40())
	searcher := &gpu.Searcher{Dev: dev, Mem: gpu.MemAuto}
	thr := pl.Opts.Thresholds
	res = &pipeline.Result{}

	s := rec.start(op, parent, "gpu.upload", "gpu.UploadDB, UploadMSVProfile")
	ddb := gpu.UploadDB(dev, db)
	dmp := gpu.UploadMSVProfile(dev, pl.MSV)
	rec.end(s)
	s = rec.start(op, parent, "gpu.kernel", "gpu.Searcher.MSVSearch")
	msvRep, err := searcher.MSVSearch(dmp, ddb)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, mod, err
	}
	msvSurv, _ := survivors(msvRep.Results, nil, pl.MSVGumbel, thr.MSV)
	res.MSV = filterStats(db, len(msvSurv), pl.Prof.M)

	sub := subDatabase(db, msvSurv)
	s = rec.start(op, parent, "gpu.upload", "gpu.UploadDB, UploadVitProfile")
	subDev := gpu.UploadDB(dev, sub)
	dvp := gpu.UploadVitProfile(dev, pl.Vit)
	rec.end(s)
	var vitRep *gpu.SearchReport
	var vitSurv []int
	if sub.NumSeqs() > 0 {
		s = rec.start(op, parent, "gpu.kernel", "gpu.Searcher.ViterbiSearch")
		vitRep, err = searcher.ViterbiSearch(dvp, subDev)
		rec.end(s)
		if err != nil {
			return nil, nil, 0, mod, err
		}
		vitSurv, _ = survivors(vitRep.Results, msvSurv, pl.VitGumbel, thr.Viterbi)
	}
	res.Viterbi = filterStats(sub, len(vitSurv), pl.Prof.M)
	res.Forward.In = len(vitSurv) // Forward is skipped: survivors are counted, not rescored

	s = rec.start(op, parent, "pipeline", "pipeline.WriteTblout")
	out, err = digest(name, res)
	rec.end(s)
	if err != nil {
		return nil, nil, 0, mod, err
	}
	return res, out, integrity.Checksum(msvRep.Results), modelledOf(dev.Spec, msvRep, vitRep), nil
}

func runDevice(cfg runConfig, traced bool) (*workloadResult, error) {
	abc := alphabet.New()
	var queries []*query
	var targets []*target
	for i, m := range cfg.sz.deviceMs {
		q, err := newQuery(fmt.Sprintf("device-M%d", m), m, abc, subSeed(cfg.seed, seedDevice, 2*i))
		if err != nil {
			return nil, err
		}
		n := int(cfg.sz.deviceCells / int64(m) / envnrMeanLen)
		if n < cfg.sz.deviceMinSeqs {
			n = cfg.sz.deviceMinSeqs
		}
		tg, err := newTarget(envnrCapped(n, subSeed(cfg.seed, seedDevice, 2*i+1)), q.h, abc)
		if err != nil {
			return nil, err
		}
		queries, targets = append(queries, q), append(targets, tg)
	}

	out := newResult()
	m := out.metrics

	// Set-up several times; the last one's pipelines serve the ops.
	var points []devicePoint
	for i := 0; i < setupReps(traced, 3); i++ {
		settle()
		t0 := time.Now()
		pts, err := deviceSetup(abc, queries, targets)
		if err != nil {
			return nil, fmt.Errorf("device_cycles set-up: %w", err)
		}
		if !traced {
			m.add("setup_s", "s", time.Since(t0).Seconds())
		}
		points = pts
	}

	refs := make([]deviceRef, len(points))
	var cells int64
	for i, pt := range points {
		res, err := pt.pl.RunCPU(pt.db)
		if err != nil {
			return nil, fmt.Errorf("device_cycles reference: %w", err)
		}
		d, err := digest(queries[i].h.Name, res)
		if err != nil {
			return nil, err
		}
		refs[i] = deviceRef{out: d, msvCheck: integrity.Checksum(res.Extra.(*pipeline.CPUExtra).MSVResults), cells: totalCells(res)}
		cells += refs[i].cells
	}

	// sweep runs every size once and checks each against its reference
	// and against the first sweep's modelled counters.
	type sweepOut struct {
		walls     []float64 // per size
		wall      float64
		modelledS float64
		stages    *pipeline.Result // stage statistics summed over sizes
		last      *pipeline.Result
	}
	var first []modelled
	sweep := func(rec *recorder, op int) (*sweepOut, error) {
		root := rec.start(op, noSpan, layerOther, "device_cycles sweep")
		defer rec.end(root)
		so := &sweepOut{stages: &pipeline.Result{}}
		mods := make([]modelled, len(points))
		for i, pt := range points {
			name := queries[i].h.Name
			t0 := time.Now()
			var got []byte
			var check uint64
			var err error
			if rec == nil {
				so.last, got, check, mods[i], err = devicePointOp(pt, name)
			} else {
				so.last, got, check, mods[i], err = devicePointStaged(pt, name, rec, op, root)
			}
			wall := time.Since(t0).Seconds()
			if err == nil {
				err = sameOutput(name, got, refs[i].out)
			}
			if err == nil && check != refs[i].msvCheck {
				err = fmt.Errorf("%s: device MSV scores differ from the CPU engine's", name)
			}
			if err == nil && first != nil && mods[i] != first[i] {
				err = fmt.Errorf("%s: modelled cycle totals differ from the first op's", name)
			}
			if err != nil {
				return nil, err
			}
			so.walls = append(so.walls, wall)
			so.wall += wall
			so.modelledS += mods[i].seconds
			addStages(so.stages, so.last)
		}
		if first == nil {
			first = mods
		}
		return so, nil
	}

	if _, err := sweep(nil, 0); err != nil { // warm-up; fixes the modelled counters
		return nil, fmt.Errorf("device_cycles warm-up: %w", err)
	}

	if !traced {
		var queryWalls []float64
		launches := float64(2 * len(points))
		timedLoop(cfg.window, 3, func() {
			so, err := sweep(nil, 0)
			out.check(err)
			if err != nil {
				return
			}
			queryWalls = append(queryWalls, so.walls...)
			m.add("search_wall_s", "s", so.wall)
			m.add("cells_per_s", "1/s", float64(cells)/so.wall)
			m.add("modelled_gcups", "Gcell/s", float64(cells)/so.modelledS/1e9)
			// One size's search is one query; one kernel launch is one batch.
			m.add("qps", "1/s", float64(len(so.walls))/so.wall)
			m.add("batches_per_s", "1/s", launches/so.wall)
		})
		if len(queryWalls) > 0 {
			m.add("query_p50_s", "s", median(queryWalls))
			m.add("query_p90_s", "s", percentile(queryWalls, 0.9))
			m.add("time_to_result_s", "s", median(m["setup_s"].Vals)+median(m["search_wall_s"].Vals))
		}
		return out, nil
	}

	rec := newRecorder()
	var last *pipeline.Result
	tw, ok := tracedPass(m, cfg.tracedOps,
		func(op int) (float64, bool) {
			so, err := sweep(rec, op)
			out.check(err)
			if err != nil {
				return 0, false
			}
			return so.wall, true
		},
		func() (float64, int, bool) {
			so, err := sweep(nil, 0)
			out.check(err)
			if err != nil {
				return 0, 0, false
			}
			stageRows(m, so.stages, time.Duration(so.wall*float64(time.Second)), 1)
			last = so.last
			return so.wall, 1, true
		})
	if !ok {
		return out, nil
	}
	if err := outputRows(m, queries[len(queries)-1].h.Name, last); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	out.trace = traceRows(m, "device_cycles", spans, budget(spans, tw.ops), tw, "")
	return out, nil
}

// addStages accumulates one result's stage statistics into total.
func addStages(total, res *pipeline.Result) {
	for _, p := range []struct{ dst, src *pipeline.StageStats }{
		{&total.MSV, &res.MSV}, {&total.Viterbi, &res.Viterbi}, {&total.Forward, &res.Forward},
	} {
		p.dst.In += p.src.In
		p.dst.Out += p.src.Out
		p.dst.Cells += p.src.Cells
		p.dst.Wall += p.src.Wall
	}
}
