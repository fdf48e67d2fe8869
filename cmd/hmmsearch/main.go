// Command hmmsearch searches a profile HMM against a FASTA sequence
// database with the accelerated HMMER3 pipeline, on the CPU engine or
// on a simulated GPU:
//
//	hmmsearch -engine cpu        query.hmm targets.fasta
//	hmmsearch -engine gpu        query.hmm targets.fasta   (Tesla K40)
//	hmmsearch -engine multigpu   query.hmm targets.fasta   (4x GTX 580)
//
// Databases too large for memory stream in batches; with -engine
// multigpu the batches are residue-balanced and fed to whichever
// device frees up first:
//
//	hmmsearch -stream 5000 query.hmm targets.fasta
//	hmmsearch -engine multigpu -stream 5000 -devices 4 query.hmm targets.fasta
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/drainctx"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obsio"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// simMode is the parsed -sim flag; every device this command creates
// runs in this mode.
var simMode simt.Mode

func main() {
	var (
		engine   = flag.String("engine", "cpu", "cpu|gpu|multigpu")
		mem      = flag.String("mem", "auto", "GPU memory configuration: auto|shared|global")
		evalue   = flag.Float64("E", 10.0, "report hits with E-value <= this")
		aligns   = flag.Bool("alignments", false, "render domain alignments for reported hits")
		null2    = flag.Bool("null2", false, "apply the biased-composition score correction")
		tblout   = flag.String("tblout", "", "write a machine-readable per-target table to this file")
		stream   = flag.Int("stream", 0, "stream the database in batches of this many sequences (constant memory); 0 loads it whole (-engine cpu or multigpu)")
		batchres = flag.Int64("batchres", 0, "multigpu streaming: residue budget per batch (0 = stream * targlen)")
		targlen  = flag.Int("targlen", 350, "assumed typical target length for -stream (the length model cannot be derived from an unread stream)")
		workers  = flag.Int("workers", 0, "host worker goroutines (0 = GOMAXPROCS)")
		devices  = flag.Int("devices", 4, "device count for -engine multigpu")
		trace    = flag.String("trace", "", "write a span timeline of the run to this file (search, stage, batch, and kernel spans)")
		traceFmt = flag.String("traceformat", "chrome", "trace file format: chrome (load in ui.perfetto.dev or chrome://tracing) | jsonl")
		metrics  = flag.String("metrics", "", "write run counters to this file in Prometheus text format")
		kprof    = flag.String("kprof", "", "write a kernel-grained profile (occupancy, stall attribution, counters) to this file as JSON; render with hmmprof")
		cpuprof  = flag.String("cpuprofile", "", "write a host CPU profile (runtime/pprof) to this file")
		memprof  = flag.String("memprofile", "", "write a host heap profile (runtime/pprof) to this file on exit")
		sim      = flag.String("sim", "cycles", "simulator mode: cycles (cycle-accurate counters) or fast (functional, no accounting); results are identical")

		faultSpec    = flag.String("faults", "", "inject faults: \"<scope>:<fault>[,...][;...]\" with scopes dev<N> (-engine multigpu -stream: p=P, at=N, hang=N, dead[=N], flip@p=P, flip@shared=P, flip@launch=N), w<N> (-cluster/-cluster-workers: refuse=N, kill=N, killp=P, torn=N, stall=N@D, dead=1, hello=bad), coord (kill=N, exit status 3) and journal (-journal: crash=N[@before-append|@after-append|@after-sync], exit status 3) — e.g. \"dev0:p=0.2;dev2:dead\" or \"w0:kill=1,dead=1;journal:crash=3\"")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the probabilistic faults of -faults (p=, killp=, flip@p=, flip@shared=)")
		maxRetries   = flag.Int("max-retries", 0, "per-batch retry budget after transient device faults (0 = default, negative disables)")
		quarAfter    = flag.Int("quarantine-after", 0, "consecutive device failures before quarantine (0 = default, negative disables)")
		batchTimeout = flag.Duration("batch-timeout", 0, "per-batch watchdog deadline (0 disables); a timed-out batch is reassigned and its device quarantined")
		noFallback   = flag.Bool("no-fallback", false, "fail instead of completing on the host CPU when every device is quarantined")
		verify       = flag.String("verify", "off", "result-integrity policy against silent data corruption (multigpu streaming): off | guards (discard and requeue corrupt batches) | dmr (re-execute corrupt batches on the host CPU)")

		clusterN       = flag.Int("cluster", 0, "shard the streamed search across this many in-process worker nodes, each with -devices simulated devices (exercises the full cluster wire protocol; see cmd/hmmworker for real worker processes)")
		clusterWorkers = flag.String("cluster-workers", "", "comma-separated hmmworker addresses (host:port) to shard the streamed search across over TCP")
		clusterDeadl   = flag.Duration("cluster-deadline", 0, "per-batch assignment deadline in cluster mode (0 disables); a batch not answered in time is reclaimed and requeued, the late reply fenced")
		haStandby      = flag.Bool("ha-standby", false, "run as the hot-standby coordinator: keep warm connections to -cluster-workers, tail the -journal, and take over the run (fencing the dead primary by epoch) when the primary's <journal>.lock frees")
		haEpoch        = flag.Uint64("ha-epoch", 0, "coordinator epoch for fencing: the primary runs at 1 (default), a standby takes over at 2; chain further standbys with higher epochs")

		journalPath = flag.String("journal", "", "journal committed batches to this crash-safe file (multigpu streaming); an interrupted run resumes with -resume")
		resume      = flag.Bool("resume", false, "resume from the -journal file when it exists: journaled batches merge from disk and are not re-executed")
		journalSync = flag.Int("journal-sync", 1, "fsync the journal every N appended batches (1 = every batch; larger trades re-executing up to N-1 batches after a crash for append throughput)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hmmsearch [flags] <query.hmm> <targets.fasta>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	abc := alphabet.New()
	stopProf, err := startProfiles(*cpuprof, *memprof)
	check(err)
	defer stopProf()
	sk := newSinks(*trace, *traceFmt, *metrics, *kprof)
	simMode, err = simt.ParseMode(*sim)
	check(err)
	memCfg, err := gpu.ParseMemConfig(*mem)
	check(err)
	verifyMode, err := pipeline.ParseVerifyMode(*verify)
	check(err)

	addrs := splitAddrs(*clusterWorkers)
	clustered := *clusterN > 0 || len(addrs) > 0
	plan, err := faultPlan(*faultSpec, *faultSeed, *engine, *stream, *devices, *clusterN+len(addrs), *journalPath)
	check(err)

	if *stream > 0 {
		budget := *batchres
		if budget <= 0 {
			budget = int64(*stream) * int64(*targlen)
		}
		co := ckptOpts{path: *journalPath, resume: *resume, syncEvery: *journalSync, crash: plan.Crash}
		if *resume && *journalPath == "" {
			fatalf("-resume requires -journal")
		}
		if clustered {
			if *haStandby {
				if *clusterWorkers == "" || *clusterN > 0 {
					fatalf("-ha-standby requires TCP workers (-cluster-workers): the standby must reach the same worker processes the primary used")
				}
				if *journalPath == "" {
					fatalf("-ha-standby requires -journal: the primary's commit log is the handoff medium")
				}
				if *resume {
					fatalf("-ha-standby replaces -resume: the standby tails the journal live and settles it at takeover")
				}
			}
			cl := clusterOpts{
				inProcess:       *clusterN,
				addrs:           addrs,
				inject:          plan.Cluster,
				batchDeadline:   *clusterDeadl,
				maxRetries:      *maxRetries,
				quarantineAfter: *quarAfter,
				noFallback:      *noFallback,
				standby:         *haStandby,
				epoch:           *haEpoch,
			}
			runClusterStreaming(abc, flag.Arg(0), flag.Arg(1), memCfg, *devices,
				budget, *targlen, *workers, *evalue, *tblout, sk, cl, co)
			flushSinks(sk)
			return
		}
		switch *engine {
		case "cpu":
			if *journalPath != "" || *resume {
				fatalf("-journal/-resume require -engine multigpu or -cluster/-cluster-workers")
			}
			runStreaming(abc, flag.Arg(0), flag.Arg(1), *stream, *targlen, *workers, *evalue, *tblout, sk)
		case "multigpu":
			fo := faultOpts{
				faults:          plan.Devices,
				maxRetries:      *maxRetries,
				quarantineAfter: *quarAfter,
				batchTimeout:    *batchTimeout,
				noFallback:      *noFallback,
				verify:          verifyMode,
			}
			runMultiStreaming(abc, flag.Arg(0), flag.Arg(1), memCfg, *devices,
				budget, *targlen, *workers, *evalue, *tblout, sk, fo, co)
		default:
			fatalf("-stream requires -engine cpu or multigpu")
		}
		flushSinks(sk)
		return
	}
	if clustered {
		fatalf("-cluster/-cluster-workers require -stream")
	}
	if *journalPath != "" || *resume {
		fatalf("-journal/-resume require -engine multigpu -stream")
	}

	query, db := loadInputs(abc, flag.Arg(0), flag.Arg(1))

	opts := pipeline.DefaultOptions()
	opts.Workers = *workers
	opts.ComputeAlignments = *aligns
	opts.UseNull2 = *null2
	sk.Apply(&opts)
	pl, err := pipeline.New(query, int(db.MeanLen()), opts)
	check(err)

	var res *pipeline.Result
	switch *engine {
	case "cpu":
		res, err = pl.RunCPU(db)
	case "gpu":
		dev := simt.NewDevice(simt.TeslaK40())
		dev.Mode = simMode
		res, err = pl.RunGPU(dev, memCfg, db)
	case "multigpu":
		res, err = pl.RunMultiGPU(simt.NewSystem(simt.GTX580(), *devices).SetMode(simMode), memCfg, db)
	default:
		fatalf("unknown -engine %q", *engine)
	}
	check(err)

	fmt.Printf("Query:    %s (M=%d)\n", query.Name, query.M)
	fmt.Printf("Database: %s (%d sequences, %d residues)\n",
		flag.Arg(1), db.NumSeqs(), db.TotalResidues())
	fmt.Printf("Pipeline: MSV %s; Viterbi %s; Forward %s\n\n",
		res.MSV.Summary(), res.Viterbi.Summary(), res.Forward.Summary())

	fmt.Printf("%-12s %-28s %10s %10s %10s %10s\n",
		"E-value", "sequence", "fwd bits", "vit bits", "msv bits", "P-value")
	shown := 0
	for _, h := range res.Hits {
		if h.EValue > *evalue {
			continue
		}
		fmt.Printf("%-12.3g %-28s %10.2f %10.2f %10.2f %10.3g\n",
			h.EValue, h.Name, h.FwdBits, h.VitBits, h.MSVBits, h.PValue)
		shown++
		if *aligns {
			for d, dom := range h.Domains {
				fmt.Printf("\n  domain %d: hmm %d..%d, seq %d..%d\n", d+1,
					dom.HMMFrom, dom.HMMTo, dom.SeqFrom, dom.SeqTo)
				printWrapped(dom, query.Name, h.Name)
			}
			if len(h.Envelopes) > 0 {
				fmt.Printf("  posterior envelopes:")
				for _, e := range h.Envelopes {
					fmt.Printf(" %d..%d", e.From, e.To)
				}
				fmt.Println()
			}
			fmt.Println()
		}
	}
	if shown == 0 {
		fmt.Println("  (no hits below the E-value threshold)")
	}

	if *tblout != "" {
		check(writeTblout(*tblout, query.Name, res))
		fmt.Printf("\nper-target table written to %s\n", *tblout)
	}
	flushSinks(sk)
}

// sinks is the shared observability sink set (internal/obsio); the
// trace/metrics/kprof flag handling lives there so hmmworker and
// hmmserved interpret the flags identically.
type sinks = obsio.Sinks

func newSinks(tracePath, traceFmt, metricsPath, kprofPath string) *sinks {
	s, err := obsio.New(tracePath, traceFmt, metricsPath, kprofPath)
	check(err)
	return s
}

// flushSinks writes the artifact files, logging one line per artifact.
func flushSinks(s *sinks) {
	check(s.Flush(func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}))
}

// writeTblout emits a HMMER-style space-separated per-target table
// (the shared pipeline.WriteTblout format, so hmmserved responses
// byte-diff cleanly against this file).
func writeTblout(path, queryName string, res *pipeline.Result) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipeline.WriteTblout(fh, queryName, res); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// printWrapped renders a three-row alignment in 60-column blocks.
func printWrapped(dom refimpl.DomainAlignment, qname, tname string) {
	const width = 60
	model, match, target := dom.Model, dom.Match, dom.Target
	for len(model) > 0 {
		n := width
		if n > len(model) {
			n = len(model)
		}
		fmt.Printf("  %-14.14s %s\n", qname, model[:n])
		fmt.Printf("  %-14.14s %s\n", "", match[:n])
		fmt.Printf("  %-14.14s %s\n", tname, target[:n])
		model, match, target = model[n:], match[n:], target[n:]
	}
}

// runStreaming searches a FASTA stream without loading it into memory.
func runStreaming(abc *alphabet.Alphabet, hmmPath, fastaPath string, batch, targetLen, workers int, evalue float64, tblout string, sk *sinks) {
	hf, err := os.Open(hmmPath)
	check(err)
	query, err := hmm.Read(hf, abc)
	check(err)
	hf.Close()

	opts := pipeline.DefaultOptions()
	opts.Workers = workers
	sk.Apply(&opts)
	pl, err := pipeline.New(query, targetLen, opts)
	check(err)

	ff, err := os.Open(fastaPath)
	check(err)
	defer ff.Close()
	res, err := pl.RunCPUStream(ff, batch)
	check(err)

	fmt.Printf("Query:    %s (M=%d, streamed in batches of %d)\n", query.Name, query.M, batch)
	printStreamed(query.Name, res, evalue, tblout)
}

// faultOpts carries the device faults of -faults and the recovery
// flags into the multigpu streaming path.
type faultOpts struct {
	faults          map[int]*simt.FaultInjector
	maxRetries      int
	quarantineAfter int
	batchTimeout    time.Duration
	noFallback      bool
	verify          pipeline.VerifyMode
}

// ckptOpts carries the crash-safety flags into the multigpu streaming
// path.
type ckptOpts struct {
	path      string
	resume    bool
	syncEvery int
	crash     *checkpoint.CrashPlan
}

// clusterOpts carries the cluster-mode flags.
type clusterOpts struct {
	// inProcess spins up this many in-process worker nodes; addrs lists
	// TCP hmmworker addresses. Both can be combined, in-process first.
	inProcess int
	addrs     []string
	// inject carries the worker and coordinator faults of -faults.
	inject *cluster.FaultInjector
	// batchDeadline bounds one assignment (0 disables).
	batchDeadline time.Duration
	// maxRetries/quarantineAfter/noFallback mirror the single-node
	// recovery knobs at the worker tier.
	maxRetries      int
	quarantineAfter int
	noFallback      bool
	// standby runs the hot-standby protocol instead of a primary
	// coordinator; epoch overrides the coordinator epoch for fencing.
	standby bool
	epoch   uint64
}

// drainOnInterrupt installs the two-stage SIGINT policy shared by the
// resumable streaming paths: the first interrupt drains gracefully
// (in-flight batches finish and are journaled), the second aborts via
// context cancellation. stop uninstalls the handler. The policy lives
// in internal/drainctx so hmmworker and hmmserved share it.
func drainOnInterrupt() (ctx context.Context, drain <-chan struct{}, stop func()) {
	return drainctx.Notify("hmmsearch", os.Stderr, os.Interrupt)
}

// runMultiStreaming searches a FASTA stream across simulated devices:
// residue-balanced batches, dynamic device assignment, per-device
// utilization in the summary. fo optionally injects device faults and
// tunes the scheduler's recovery knobs; co optionally journals
// committed batches and resumes from a previous run's journal.
//
// With journaling active, SIGINT drains gracefully: in-flight batches
// finish and land in the journal, then the run exits cleanly with a
// resume hint. A second SIGINT aborts immediately.
func runMultiStreaming(abc *alphabet.Alphabet, hmmPath, fastaPath string, mem gpu.MemConfig,
	devices int, batchResidues int64, targetLen, workers int, evalue float64, tblout string, sk *sinks, fo faultOpts, co ckptOpts) {

	// The handler installs before the (slow) calibration in
	// pipeline.New, so an early SIGINT is drained, not fatal.
	// First SIGINT: graceful drain — in-flight batches finish (and are
	// journaled), then the run returns with a partial result. Second
	// SIGINT: hard abort via context cancellation (kernels poll the
	// cancel channel between blocks).
	ctx, drain, stop := drainOnInterrupt()
	defer stop()

	hf, err := os.Open(hmmPath)
	check(err)
	query, err := hmm.Read(hf, abc)
	check(err)
	hf.Close()

	opts := pipeline.DefaultOptions()
	opts.Workers = workers
	sk.Apply(&opts)
	pl, err := pipeline.New(query, targetLen, opts)
	check(err)

	ff, err := os.Open(fastaPath)
	check(err)
	defer ff.Close()
	sys := simt.NewSystem(simt.GTX580(), devices).SetMode(simMode)
	check(sys.ApplyFaults(fo.faults))

	cfg := pipeline.StreamConfig{
		BatchResidues:   batchResidues,
		MaxRetries:      fo.maxRetries,
		QuarantineAfter: fo.quarantineAfter,
		BatchTimeout:    fo.batchTimeout,
		DisableFallback: fo.noFallback,
		Verify:          fo.verify,
	}
	if co.path != "" {
		cfg.Checkpoint = &pipeline.CheckpointConfig{
			Path:      co.path,
			Resume:    co.resume,
			SyncEvery: co.syncEvery,
			Crash:     co.crash,
		}
	}

	cfg.Drain = drain

	res, err := pl.RunMultiGPUStreamContext(ctx, sys, mem, ff, cfg)
	if err != nil {
		if errors.Is(err, checkpoint.ErrInjectedCrash) {
			// Distinct exit status so recovery tests can assert the
			// simulated crash happened (and was not a real failure).
			fmt.Fprintf(os.Stderr, "hmmsearch: %v\n", err)
			os.Exit(3)
		}
		check(err)
	}

	extra := res.Extra.(*pipeline.MultiGPUStreamExtra)
	sched := extra.Schedule
	fmt.Printf("Query:    %s (M=%d, streamed in %d residue-balanced batches of ~%d residues)\n",
		query.Name, query.M, sched.Batches, batchResidues)
	fmt.Printf("Devices:  %d x %s\n", devices, sys.Devices[0].Spec.Name)
	fmt.Println(sched.String())
	printRecovery(co, extra.Checkpoint, extra.Drained, "hmmsearch -engine multigpu -stream", batchResidues)
	printStreamed(query.Name, res, evalue, tblout)
}

// runClusterStreaming shards a FASTA stream across cluster workers:
// in-process worker nodes (-cluster n, each driving -devices simulated
// devices over the full wire protocol), TCP hmmworker processes
// (-cluster-workers), or both. Worker loss is detected by heartbeat
// and repaired by exactly-once requeue; with every worker gone the
// run degrades to the local CPU unless -no-fallback. Journaling,
// -resume, injected journal crashes, and the SIGINT drain behave
// exactly as in the single-node streamed path — the coordinator reuses
// the same journal as its commit log.
func runClusterStreaming(abc *alphabet.Alphabet, hmmPath, fastaPath string, mem gpu.MemConfig,
	devicesPerWorker int, batchResidues int64, targetLen, workers int, evalue float64,
	tblout string, sk *sinks, cl clusterOpts, co ckptOpts) {

	ctx, drain, stop := drainOnInterrupt()
	defer stop()

	hf, err := os.Open(hmmPath)
	check(err)
	query, err := hmm.Read(hf, abc)
	check(err)
	hf.Close()

	opts := pipeline.DefaultOptions()
	opts.Workers = workers
	sk.Apply(&opts)
	pl, err := pipeline.New(query, targetLen, opts)
	check(err)

	cfg := pipeline.StreamConfig{
		BatchResidues:   batchResidues,
		MaxRetries:      cl.maxRetries,
		QuarantineAfter: cl.quarantineAfter,
		DisableFallback: cl.noFallback,
		Drain:           drain,
	}
	if co.path != "" {
		cfg.Checkpoint = &pipeline.CheckpointConfig{
			Path:      co.path,
			Resume:    co.resume,
			SyncEvery: co.syncEvery,
			Crash:     co.crash,
		}
	}

	mode := byte(simMode)
	ccfg := pipeline.ClusterConfig{
		Mode:          mode,
		BatchDeadline: cl.batchDeadline,
		Inject:        cl.inject,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hmmsearch: "+format+"\n", args...)
		},
	}
	if cl.inProcess > 0 {
		ccfg.Workers = pl.InProcessClusterWorkers(cfg, mode, cl.inProcess, devicesPerWorker,
			func() cluster.Exec {
				sys := simt.NewSystem(simt.GTX580(), devicesPerWorker).SetMode(simMode)
				return pl.ClusterExecGPU(sys, mem)
			})
	}
	for _, addr := range cl.addrs {
		a := addr
		ccfg.Workers = append(ccfg.Workers, cluster.WorkerSpec{
			Name: a,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", a)
			},
		})
	}

	ff, err := os.Open(fastaPath)
	check(err)
	defer ff.Close()
	var res *pipeline.Result
	if cl.standby {
		res, err = pl.RunStandbyClusterStreamContext(ctx, ff, cfg, ccfg,
			pipeline.StandbyClusterConfig{Epoch: cl.epoch})
	} else {
		if co.path != "" {
			// Hold the journal's flock for the whole run so a hot
			// standby's takeover gates on this process's death: the
			// kernel frees the lock when we exit, however we exit.
			release, lerr := cluster.AcquireFileLeadership(co.path+".lock",
				cluster.DefaultLeadershipPoll)(ctx)
			check(lerr)
			defer release()
		}
		ccfg.Epoch = cl.epoch
		res, err = pl.RunClusterStreamContext(ctx, ff, cfg, ccfg)
	}
	if err != nil {
		if errors.Is(err, checkpoint.ErrInjectedCrash) || errors.Is(err, cluster.ErrInjectedCoordinatorKill) {
			// Distinct exit status so recovery and failover tests can
			// assert the simulated death happened (and was not a real
			// failure).
			fmt.Fprintf(os.Stderr, "hmmsearch: %v\n", err)
			os.Exit(3)
		}
		check(err)
	}

	extra := res.Extra.(*pipeline.ClusterStreamExtra)
	rep := extra.Cluster
	fmt.Printf("Query:    %s (M=%d, streamed in %d residue-balanced batches of ~%d residues)\n",
		query.Name, query.M, rep.Batches, batchResidues)
	fmt.Println(rep.String())
	if rep.Failovers > 0 {
		fmt.Printf("Failover: took over at epoch %d after tailing %d committed batches from the primary's journal\n",
			rep.Epoch, rep.StandbyTailed)
	}
	printRecovery(co, extra.Checkpoint, extra.Drained, "hmmsearch -stream", batchResidues)
	printStreamed(query.Name, res, evalue, tblout)
}

// printRecovery prints a journaled streamed run's Journal: line and,
// when the run drained before the end of the stream, how to resume it;
// resume is the command line up to its -batchres flag.
func printRecovery(co ckptOpts, st *checkpoint.Stats, drained bool, resume string, batchResidues int64) {
	if st != nil {
		fmt.Printf("Journal:  %s (%d batches journaled, %d replayed, %d torn-tail dropped, %d fsyncs)\n",
			co.path, st.Journaled, st.Replayed, st.DroppedTail, st.Syncs)
	}
	if drained {
		fmt.Printf("Run drained before the end of the stream: partial results only.\n")
		if co.path != "" {
			fmt.Printf("Resume with: %s -batchres %d -journal %s -resume ...\n",
				resume, batchResidues, co.path)
		}
	}
}

// printStreamed prints a streamed run's stage counts and its hits up to
// evalue, and writes the -tblout table when one is asked for.
func printStreamed(queryName string, res *pipeline.Result, evalue float64, tblout string) {
	fmt.Printf("Pipeline: MSV %d/%d passed; Viterbi %d; Forward hits %d\n\n",
		res.MSV.Out, res.MSV.In, res.Viterbi.Out, len(res.Hits))
	fmt.Printf("%-12s %-28s %10s\n", "E-value", "sequence", "fwd bits")
	shown := 0
	for _, h := range res.Hits {
		if h.EValue > evalue {
			continue
		}
		fmt.Printf("%-12.3g %-28s %10.2f\n", h.EValue, h.Name, h.FwdBits)
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no hits below the E-value threshold)")
	}
	if tblout != "" {
		check(writeTblout(tblout, queryName, res))
		fmt.Printf("\nper-target table written to %s\n", tblout)
	}
}

// faultPlan parses -faults for the run the other flags configure and
// refuses a clause the run cannot honour: device faults need the
// single-node multigpu streamed path, worker and coordinator faults a
// cluster of workers, and a journal crash a journal.
func faultPlan(spec string, seed int64, engine string, stream, devices, workers int, journal string) (*faults.Plan, error) {
	if spec == "" {
		return &faults.Plan{}, nil
	}
	plan, err := faults.Parse(spec, seed, devices, workers)
	switch {
	case err != nil:
		return nil, err
	case len(plan.Devices) > 0 && (engine != "multigpu" || stream == 0 || workers > 0):
		return nil, errors.New("-faults dev<N> clauses require -engine multigpu -stream without -cluster/-cluster-workers")
	case plan.Cluster != nil && workers == 0:
		return nil, errors.New("-faults w<N>/coord clauses require -cluster or -cluster-workers")
	case plan.Crash != nil && journal == "":
		return nil, errors.New("-faults journal clauses require -journal")
	}
	return plan, nil
}

// splitAddrs splits the comma-separated -cluster-workers list, dropping
// empty entries.
func splitAddrs(list string) []string {
	var addrs []string
	for _, addr := range strings.Split(list, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

func loadInputs(abc *alphabet.Alphabet, hmmPath, fastaPath string) (*hmm.Plan7, *seq.Database) {
	hf, err := os.Open(hmmPath)
	check(err)
	defer hf.Close()
	query, err := hmm.Read(hf, abc)
	check(err)

	ff, err := os.Open(fastaPath)
	check(err)
	defer ff.Close()
	db, err := seq.ReadFASTA(ff, abc)
	check(err)
	return query, db
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmsearch: "+format+"\n", args...)
	os.Exit(1)
}
