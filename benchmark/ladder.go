package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/integrity"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/perf"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/satmath"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/stats"
)

// The ladder is one small measurement per layer, from saturating math
// up to an HTTP query, taken from outside by timing calls into each
// package's exported functions. Its inputs come from the seed like the
// workloads', but its rows do not depend on which workload the traced
// run is for. Rates are host time unless the name says modelled; counts
// are exact and repeat for one seed.

// ladderM is the model size of the host-side rungs.
const ladderM = 200

func runLadder(cfg runConfig) (metricSet, error) {
	m := metricSet{}
	abc := alphabet.New()
	q, err := newQuery("ladder-query", ladderM, abc, subSeed(cfg.seed, seedLadder, 0))
	if err != nil {
		return nil, err
	}
	tg, err := newTarget(swissprotSeqs(cfg.sz.ladderSeqs, subSeed(cfg.seed, seedLadder, 1)), q.h, abc)
	if err != nil {
		return nil, err
	}
	p := profile.Config(q.h)
	p.SetLength(int(tg.db.MeanLen()))
	mp, vp := profile.NewMSVProfile(p), profile.NewVitProfile(p)

	for _, rung := range []func() error{
		func() error { return ladderParse(m, abc, q, tg) },
		func() error { return ladderCalibrate(m, p, mp, vp, cfg.sz.ladderCalibN) },
		func() error { return ladderHost(m, p, mp, vp, tg.db) },
		func() error { return ladderSimt(m) },
		func() error { return ladderKernels(m, cfg, abc) },
		func() error { return ladderScheduler(m, tg.db) },
		func() error { return ladderJournal(m, mp, vp, tg.db, cfg.scratch) },
		func() error { return ladderCluster(m, tg.db) },
		func() error { return ladderServe(m, cfg, abc) },
		func() error { return ladderObs(m) },
	} {
		if err := rung(); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return m, nil
}

func mega(n int64, d time.Duration) float64 { return float64(n) / 1e6 / d.Seconds() }
func micros(d time.Duration) float64        { return d.Seconds() * 1e6 }

// ladderParse: the input layers — FASTA parse, streaming chunker,
// residue packing, device upload, model parse, profile build.
func ladderParse(m metricSet, abc *alphabet.Alphabet, q *query, tg *target) error {
	d, err := perCall(func() error {
		_, err := seq.ReadFASTA(bytes.NewReader(tg.fasta), abc)
		return err
	})
	if err != nil {
		return err
	}
	m.add("seq.parse_mb_per_s", "MB/s", mega(int64(len(tg.fasta)), d))

	var batches int
	d, err = perCall(func() error {
		batches = 0
		return seq.StreamFASTAResidues(bytes.NewReader(tg.fasta), abc, fullSizes.streamBatchRes,
			func(*seq.Database) error { batches++; return nil })
	})
	if err != nil {
		return err
	}
	m.add("seq.stream_batches_per_s", "1/s", float64(batches)/d.Seconds())

	residues := tg.db.TotalResidues()
	var sink int
	d, _ = perCall(func() error {
		for _, s := range tg.db.Seqs {
			sink += len(alphabet.Pack(s.Residues))
		}
		return nil
	})
	m.add("alphabet.pack_mres_per_s", "Mres/s", mega(residues, d))

	d, _ = perCall(func() error {
		sink += len(gpu.UploadDB(simt.NewDevice(simt.TeslaK40()), tg.db).Packed)
		return nil
	})
	m.add("gpu.upload_db_mres_per_s", "Mres/s", mega(residues, d))

	d, err = perCall(func() error {
		_, err := hmm.Read(bytes.NewReader(q.text), abc)
		return err
	})
	if err != nil {
		return err
	}
	m.add("hmm.read_ms", "ms", d.Seconds()*1e3)

	d, _ = perCall(func() error {
		p := profile.Config(q.h)
		p.SetLength(int(tg.db.MeanLen()))
		sink += profile.NewMSVProfile(p).M + profile.NewVitProfile(p).M
		return nil
	})
	m.add("profile.build_ms", "ms", d.Seconds()*1e3)
	if sink == 0 {
		return errors.New("parse rungs did no work")
	}
	return nil
}

// ladderCalibrate: the three fits pipeline.New makes, with its
// scorers, at a fraction of the default sample count (the Forward fit
// alone takes seconds at N=200). One call each: a fit is long enough.
func ladderCalibrate(m metricSet, p *profile.Profile, mp *profile.MSVProfile, vp *profile.VitProfile, n int) error {
	opts := stats.DefaultCalibration()
	opts.N = n
	_, took, err := calibrate(p, mp, vp, opts, false, nil, 0, noSpan)
	if err != nil {
		return err
	}
	m.add("stats.calibrate_msv_s", "s", took[0].Seconds())
	m.add("stats.calibrate_vit_s", "s", took[1].Seconds())
	m.add("stats.calibrate_fwd_s", "s", took[2].Seconds())
	return nil
}

// ladderHost: saturating math, the striped CPU filters on one worker
// and on all, the lazy-F work count, and host Forward.
func ladderHost(m metricSet, p *profile.Profile, mp *profile.MSVProfile, vp *profile.VitProfile, db *seq.Database) error {
	const lanes = 1 << 14
	a8, b8, o8 := make([]uint8, lanes), make([]uint8, lanes), make([]uint8, lanes)
	a16, b16, o16 := make([]int16, lanes), make([]int16, lanes), make([]int16, lanes)
	for i := range a8 {
		a8[i], b8[i] = uint8(i*7), uint8(i*13)
		a16[i], b16[i] = int16(i*257), int16(i*509)
	}
	d, _ := perCall(func() error {
		for i := range o8 {
			o8[i] = satmath.AddU8(a8[i], b8[i])
		}
		return nil
	})
	m.add("satmath.addu8_mlanes_per_s", "Mlane/s", mega(lanes, d))
	d, _ = perCall(func() error {
		for i := range o16 {
			o16[i] = satmath.AddI16(a16[i], b16[i])
		}
		return nil
	})
	m.add("satmath.addi16_mlanes_per_s", "Mlane/s", mega(lanes, d))

	cells := db.TotalResidues() * int64(p.M)
	var kept int
	one := cpu.Engine{Workers: 1}
	d, _ = perCall(func() error { kept += len(one.MSVAll(mp, db)); return nil })
	m.add("cpu.msv_mcells_per_s", "Mcell/s", mega(cells, d))
	d, _ = perCall(func() error { kept += len(one.ViterbiAll(vp, db)); return nil })
	m.add("cpu.vit_mcells_per_s", "Mcell/s", mega(cells, d))
	d, _ = perCall(func() error { kept += len(cpu.Engine{}.MSVAll(mp, db)); return nil })
	m.add("cpu.msv_mcells_per_s.par", "Mcell/s", mega(cells, d))

	vitEng := cpu.NewVitEngine(vp)
	var rows, passes int
	for _, s := range db.Seqs {
		_, info := vitEng.FilterWithStats(s.Residues)
		rows += info.Rows
		passes += info.IteratedPasses
	}
	m.add("cpu.lazyf_iters_per_row", "count", float64(passes)/float64(rows))

	few := db.Seqs
	if len(few) > 8 {
		few = few[:8]
	}
	var fwdCells int64
	for _, s := range few {
		fwdCells += int64(s.Len()) * int64(p.M)
	}
	var score float64
	d, _ = perCall(func() error {
		for _, s := range few {
			score += refimpl.Forward(p, s.Residues)
		}
		return nil
	})
	m.add("refimpl.fwd_mcells_per_s", "Mcell/s", mega(fwdCells, d))
	if kept == 0 || score == 0 || o8[1]+uint8(o16[1]) == 0 {
		return errors.New("host rungs did no work")
	}
	return nil
}

// ladderSimt: what one launch costs with nothing in it, and how fast
// the span memory operations the kernels are built from run, in both
// simulator modes.
func ladderSimt(m metricSet) error {
	const (
		blocks, warps = 8, 4
		iters         = 200
		opsPerIter    = 5
		slot          = 128 // shared bytes per warp
	)
	for _, mode := range []simt.Mode{simt.ModeFast, simt.ModeCycleAccurate} {
		dev := simt.NewDevice(simt.TeslaK40())
		dev.Mode = mode
		suffix := "." + mode.String()

		d, err := perCall(func() error {
			_, err := dev.Launch(simt.LaunchConfig{Blocks: 1, WarpsPerBlock: 1, RegsPerThread: 32, Name: "empty"},
				func(*simt.Warp) {})
			return err
		})
		if err != nil {
			return err
		}
		m.add("simt.launch_overhead_us"+suffix, "us", micros(d))

		base := dev.AllocGlobal(blocks * warps * slot)
		d, err = perCall(func() error {
			_, err := dev.Launch(simt.LaunchConfig{Blocks: blocks, WarpsPerBlock: warps,
				SharedBytesPerBlock: warps * slot, RegsPerThread: 32, Name: "span"},
				func(w *simt.Warp) {
					var u8 [32]uint8
					var i16 [32]int16
					at := w.WarpInBlock * slot
					for i := 0; i < iters; i++ {
						w.SharedSpanStoreU8(u8[:], at, 32)
						w.SharedSpanLoadU8(u8[:], at, 32)
						w.SharedSpanStoreI16(i16[:], at+32, 32)
						w.SharedSpanLoadI16(i16[:], at+32, 32)
						w.GlobalSpanLoad(base+int64(w.GlobalWarpID()*slot), 4, 32)
					}
				})
			return err
		})
		if err != nil {
			return err
		}
		m.add("simt.span_mops"+suffix, "Mop/s", mega(blocks*warps*iters*opsPerIter, d))
	}
	return nil
}

// kernelPoint is one (model size, database) the kernel rungs launch on.
type kernelPoint struct {
	mp  *profile.MSVProfile
	vp  *profile.VitProfile
	db  *seq.Database
	cel int64
}

func newKernelPoint(abc *alphabet.Alphabet, m, minSeqs int, seed int64) (*kernelPoint, error) {
	q, err := newQuery(fmt.Sprintf("ladder-M%d", m), m, abc, seed)
	if err != nil {
		return nil, err
	}
	n := 3_000_000 / m / envnrMeanLen
	if n < minSeqs {
		n = minSeqs
	}
	tg, err := newTarget(envnrSeqs(n, seed+1), q.h, abc)
	if err != nil {
		return nil, err
	}
	p := profile.Config(q.h)
	p.SetLength(int(tg.db.MeanLen()))
	return &kernelPoint{mp: profile.NewMSVProfile(p), vp: profile.NewVitProfile(p), db: tg.db,
		cel: tg.db.TotalResidues() * int64(m)}, nil
}

// ladderKernels: the two kernels on a cycle-accurate K40 at a small, a
// typical and a past-the-collapse model size — host rate, and the
// modelled counts a simulator-speed change must leave identical — and
// the MSV kernel in fast mode on the GTX 580 the scale-out workloads
// use.
func ladderKernels(m metricSet, cfg runConfig, abc *alphabet.Alphabet) error {
	spec := simt.TeslaK40()
	minSeqs := cfg.sz.ladderSeqs / 2
	var all simt.KernelStats
	var allCells int64
	var cpuS, gpuS float64
	base := perf.BaselineI5()
	for i, size := range cfg.sz.ladderMs {
		kp, err := newKernelPoint(abc, size, minSeqs, subSeed(cfg.seed, seedLadder, 10+2*i))
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf(".m%d", size)
		dev := simt.NewDevice(spec)
		s := &gpu.Searcher{Dev: dev, Mem: gpu.MemAuto}
		ddb := gpu.UploadDB(dev, kp.db)
		dmp, dvp := gpu.UploadMSVProfile(dev, kp.mp), gpu.UploadVitProfile(dev, kp.vp)

		for _, k := range []struct {
			name string
			run  func() (*gpu.SearchReport, error)
			cpuT func(perf.CPUSpec, int64) float64
		}{
			{"msv", func() (*gpu.SearchReport, error) { return s.MSVSearch(dmp, ddb) }, perf.CPUTimeMSV},
			{"vit", func() (*gpu.SearchReport, error) { return s.ViterbiSearch(dvp, ddb) }, perf.CPUTimeVit},
		} {
			rep, err := k.run() // the counts are the first launch's
			if err != nil {
				return err
			}
			d, err := perCall(func() error { _, err := k.run(); return err })
			if err != nil {
				return err
			}
			m.add("gpu."+k.name+"_mcells_per_s"+suffix, "Mcell/s", mega(kp.cel, d))
			m.add("gpu."+k.name+"_occupancy"+suffix, "ratio", rep.Plan.Occupancy.Fraction)
			m.add("gpu."+k.name+"_modelled_cycles_per_cell"+suffix, "count", float64(rep.Launch.Stats.IssueCycles)/float64(kp.cel))
			all.Add(&rep.Launch.Stats)
			allCells += kp.cel
			cpuS += k.cpuT(base, kp.cel)
			gpuS += perf.GPUTime(spec, rep.Launch)
		}
	}
	kcells := float64(allCells) / 1e3
	m.add("gpu.bank_replays_per_kcell", "count", float64(all.BankConflictReplays)/kcells)
	m.add("gpu.global_transactions_per_kcell", "count", float64(all.GlobalLoadTransactions+all.GlobalStoreTransactions)/kcells)
	m.add("perf.modelled_speedup", "ratio", perf.Speedup(cpuS, gpuS))

	kp, err := newKernelPoint(abc, fullSizes.streamM, minSeqs, subSeed(cfg.seed, seedLadder, 30))
	if err != nil {
		return err
	}
	dev := simt.NewDevice(simt.GTX580())
	dev.Mode = simt.ModeFast
	s := &gpu.Searcher{Dev: dev, Mem: gpu.MemAuto}
	ddb, dmp := gpu.UploadDB(dev, kp.db), gpu.UploadMSVProfile(dev, kp.mp)
	d, err := perCall(func() error { _, err := s.MSVSearch(dmp, ddb); return err })
	if err != nil {
		return err
	}
	m.add(fmt.Sprintf("gpu.msv_mcells_per_s.fast.m%d", fullSizes.streamM), "Mcell/s", mega(kp.cel, d))
	return nil
}

// tinyBatches cuts db into one-sequence batches: work units that cost
// nothing, so what is left is the scheduling.
func tinyBatches(db *seq.Database, n int) []*seq.Database {
	out := make([]*seq.Database, n)
	for i := range out {
		out[i] = db.Slice(i%db.NumSeqs(), i%db.NumSeqs()+1)
	}
	return out
}

// ladderScheduler: gpu.Scheduler over two devices with a no-op
// process — pure scheduling cost — and the share of device time spent
// waiting for work.
func ladderScheduler(m metricSet, db *seq.Database) error {
	const n = 2000
	batches := tinyBatches(db, n)
	var rates, waits []float64
	for rep := 0; rep < 5; rep++ {
		sched := &gpu.Scheduler{Sys: simt.NewSystem(simt.GTX580(), serveDevices).SetMode(simt.ModeFast)}
		r, err := sched.RunBatches(context.Background(),
			func(submit func(gpu.Batch) error) error {
				for i, b := range batches {
					if err := submit(gpu.Batch{Seq: i, Offset: i, DB: b}); err != nil {
						return err
					}
				}
				return nil
			},
			func(int, *simt.Device, gpu.Batch) error { return nil })
		if err != nil {
			return err
		}
		var wait time.Duration
		for _, u := range r.Util {
			wait += u.QueueWait
		}
		rates = append(rates, float64(r.Batches)/r.Wall.Seconds())
		waits = append(waits, wait.Seconds()/(float64(len(r.Util))*r.Wall.Seconds()))
	}
	m.add("gpu.sched_noop_batches_per_s", "1/s", median(rates))
	m.add("gpu.sched_queue_wait_frac", "ratio", median(waits))
	return nil
}

// ladderJournal: the integrity guards on one batch, and the journal's
// append, append+fsync, resume and follower poll. The fsync is this
// sandbox's temp directory's, not a production disk's.
func ladderJournal(m metricSet, mp *profile.MSVProfile, vp *profile.VitProfile, db *seq.Database, scratch string) error {
	chk := &integrity.Checker{MSV: mp, Vit: vp}
	msvRes := cpu.Engine{}.MSVAll(mp, db)
	vitRes := cpu.Engine{}.ViterbiAll(vp, db)
	d, err := perCall(func() error {
		if err := chk.CheckMSV(msvRes); err != nil {
			return err
		}
		return chk.CheckViterbi(vitRes)
	})
	if err != nil {
		return err
	}
	m.add("integrity.guards_us_per_batch", "us", micros(d))

	var fp checkpoint.Fingerprint
	copy(fp[:], "hmmer3gpu benchmark ladder")
	payload := bytes.Repeat([]byte{0xA5}, 256) // about one small batch's result
	path := filepath.Join(scratch, "ladder.journal")

	// appendRate creates a fresh journal and times Append at one fsync
	// cadence, leaving the records on disk.
	var records uint64
	appendRate := func(syncEvery int) (time.Duration, error) {
		j, err := checkpoint.Create(path, fp, checkpoint.Options{SyncEvery: syncEvery})
		if err != nil {
			return 0, err
		}
		records = 0
		d, err := perCall(func() error {
			records++
			return j.Append(checkpoint.Record{Seq: records, Offset: records, NumSeqs: 1, Residues: 100, Payload: payload})
		})
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return d, err
	}
	if d, err = appendRate(1); err != nil {
		return err
	}
	m.add("checkpoint.append_fsync_us", "us", micros(d))
	if d, err = appendRate(1 << 30); err != nil {
		return err
	}
	m.add("checkpoint.append_us", "us", micros(d))

	d, err = perCall(func() error {
		j, recs, err := checkpoint.Resume(path, fp, checkpoint.Options{SyncEvery: 1 << 30})
		if err != nil {
			return err
		}
		if uint64(len(recs)) != records {
			return fmt.Errorf("resume replayed %d of %d records", len(recs), records)
		}
		return j.Close()
	})
	if err != nil {
		return err
	}
	m.add("checkpoint.resume_krecords_per_s", "krec/s", float64(records)/1e3/d.Seconds())

	fo, err := checkpoint.OpenFollower(path, fp, checkpoint.FollowerOptions{})
	if err != nil {
		return err
	}
	defer fo.Close()
	if _, err := fo.Poll(); err != nil { // drain what is there
		return err
	}
	d, err = perCall(func() error { _, err := fo.Poll(); return err }) // a poll that finds nothing new
	if err != nil {
		return err
	}
	m.add("checkpoint.follower_poll_us", "us", micros(d))
	return nil
}

// clusterNoop runs the real Coordinator against real WorkerServers
// whose Exec does nothing, and returns the coordinator's report.
func clusterNoop(specs []cluster.WorkerSpec, fp [32]byte, queue int, batches []*seq.Database) (*cluster.Report, error) {
	coord := &cluster.Coordinator{Cfg: cluster.Config{Workers: specs, Fingerprint: fp, Mode: byte(simt.ModeFast), QueueDepth: queue}}
	return coord.Run(context.Background(),
		func(submit func(cluster.Batch) error) error {
			for i, b := range batches {
				if err := submit(cluster.Batch{Seq: i, Offset: i, DB: b}); err != nil {
					return err
				}
			}
			return nil
		},
		func(b cluster.Batch, _ []byte) (bool, error) { return b.Commit(), nil })
}

// ladderCluster: one batch's round trip through coordinator, wire and
// worker over net.Pipe and over loopback TCP (this sandbox's), the
// batch rate with two workers, and the fault counts, which a clean run
// leaves at zero.
func ladderCluster(m metricSet, db *seq.Database) error {
	var fp [32]byte
	copy(fp[:], "hmmer3gpu benchmark ladder")
	reply := bytes.Repeat([]byte{0x5A}, 64)
	server := func(name string, capacity int) *cluster.WorkerServer {
		return &cluster.WorkerServer{Name: name, Capacity: capacity, Fingerprint: fp, Mode: byte(simt.ModeFast),
			Exec: func(context.Context, uint64, *seq.Database) ([]byte, error) { return reply, nil }}
	}
	var requeues, fenced int
	tally := func(r *cluster.Report) {
		requeues += r.Requeues
		fenced += r.FencedResults + r.FencedCommits
	}

	// One worker, one slot, one queued batch: each batch waits for the
	// previous one's reply, so wall over batches is the round trip.
	serial := tinyBatches(db, 300)
	r, err := clusterNoop([]cluster.WorkerSpec{pipeline.InProcessWorkerSpec(server("pipe", 1))}, fp, 1, serial)
	if err != nil {
		return err
	}
	tally(r)
	m.add("cluster.roundtrip_us.pipe", "us", micros(r.Wall)/float64(r.Batches))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- server("tcp", 1).Serve(ctx, ln) }()
	r, err = clusterNoop([]cluster.WorkerSpec{{Name: "tcp", Dial: func(ctx context.Context) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, "tcp", ln.Addr().String())
	}}}, fp, 1, serial)
	cancel()
	ln.Close()
	<-served // the worker has stopped; its error is the closed listener's
	if err != nil {
		return err
	}
	tally(r)
	m.add("cluster.roundtrip_us.tcp", "us", micros(r.Wall)/float64(r.Batches))

	r, err = clusterNoop([]cluster.WorkerSpec{
		pipeline.InProcessWorkerSpec(server("a", 2)), pipeline.InProcessWorkerSpec(server("b", 2)),
	}, fp, 0, tinyBatches(db, 1500))
	if err != nil {
		return err
	}
	tally(r)
	m.add("cluster.noop_batches_per_s", "1/s", float64(r.Batches)/r.Wall.Seconds())
	m.add("cluster.requeues", "count", float64(requeues))
	m.add("cluster.fenced", "count", float64(fenced))
	return nil
}

// ladderServe: a small service instance, one resident model, one
// client: a cold query, then fresh computes and cache hits by turns.
// The overhead is a fresh query's latency less the same search run
// directly on the engine the service uses.
func ladderServe(m metricSet, cfg runConfig, abc *alphabet.Alphabet) error {
	mini := cfg.sz
	mini.serveModels, mini.serveM, mini.serveTargetLen = 1, 48, 100
	mini.serveSeqs, mini.serveBatchRes = cfg.sz.ladderSeqs, 5000
	q, err := newQuery("ladder-serve", mini.serveM, abc, subSeed(cfg.seed, seedLadder, 40))
	if err != nil {
		return err
	}
	tg, err := newTarget(swissprotSeqs(mini.serveSeqs, subSeed(cfg.seed, seedLadder, 41)), q.h, abc)
	if err != nil {
		return err
	}
	st, err := serveSetup(abc, []*query{q}, tg.fasta, mini)
	if err != nil {
		return err
	}
	defer st.close()
	m.add("serve.cold_query_s", "s", st.cold[0])

	before, err := st.scrape()
	if err != nil {
		return err
	}
	var fresh, hits []float64
	for i := 0; i < 30; i++ {
		for _, f := range []bool{true, false} {
			t0 := time.Now()
			if _, err := st.post(0, q.text, f); err != nil {
				return err
			}
			if f {
				fresh = append(fresh, time.Since(t0).Seconds())
			} else {
				hits = append(hits, time.Since(t0).Seconds())
			}
		}
	}
	after, err := st.scrape()
	if err != nil {
		return err
	}

	pl, err := pipeline.New(q.h, mini.serveTargetLen, pipeline.DefaultOptions())
	if err != nil {
		return err
	}
	var direct []float64
	sys := directSystem()
	for i := 0; i < 11; i++ {
		_, d, err := directRun(pl, sys, st.rdb)
		if err != nil {
			return err
		}
		if i > 0 { // the first warms up
			direct = append(direct, d.Seconds())
		}
	}
	sort.Float64s(hits)
	m.add("serve.hit_p50_us", "us", median(hits)*1e6)
	m.add("serve.overhead_ms", "ms", (median(fresh)-median(direct))*1e3)
	m.add("serve.queue_wait_p50_ms", "ms", histDelta(before, after, "hmmer_serve_queue_wait_seconds").Quantile(0.5)*1e3)
	m.add("serve.shed", "count", after["hmmer_serve_shed_total"])
	m.add("serve.coalesced", "count", after["hmmer_serve_search_coalesced_total"])
	m.add("serve.profile_builds", "count", after["hmmer_serve_profile_builds_total"])
	return nil
}

// ladderObs: what the repo's own span and histogram calls cost, per
// call, in batches of a thousand.
func ladderObs(m metricSet) error {
	const batch = 1000
	tr := obs.New()
	root := tr.Start("benchmark", "root")
	d, _ := perCall(func() error {
		for i := 0; i < batch; i++ {
			root.Child("span").End()
		}
		return nil
	})
	root.End()
	m.add("obs.span_ns", "ns", float64(d.Nanoseconds())/batch)

	h := obs.NewHist(obs.LatencyBuckets())
	d, _ = perCall(func() error {
		for i := 0; i < batch; i++ {
			h.Observe(float64(i) * 1e-4)
		}
		return nil
	})
	m.add("obs.hist_observe_ns", "ns", float64(d.Nanoseconds())/batch)
	return nil
}
