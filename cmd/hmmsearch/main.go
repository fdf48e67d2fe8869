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
	"io"
	"net"
	"os"
	"strings"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/drainctx"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obsio"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

// config is hmmsearch's command line. The flags it shares with
// hmmworker, hmmserved and hmmbench come from pipeline.Flags and
// obsio.Flags; its own flags bind straight into the structs they
// configure.
type config struct {
	run     *pipeline.Flags
	obs     obsio.Flags
	ckpt    pipeline.CheckpointConfig
	cluster pipeline.ClusterConfig

	engine, tblout, workerList string
	evalue                     float64
	devices, inProcess         int
	standby                    bool

	// Set by vet: the -cluster-workers addresses and the parsed -faults.
	addrs []string
	plan  *faults.Plan
}

// newConfig declares hmmsearch's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{run: pipeline.NewFlags()}
	c.run.Register(fs, "stream", "batchres", "targlen", "workers", "mem", "sim",
		"faults", "fault-seed", "max-retries", "quarantine-after", "verify")
	c.obs.Register(fs, "trace", "traceformat", "metrics", "kprof", "cpuprofile", "memprofile")
	opts, st := &c.run.Opts, &c.run.Stream

	fs.StringVar(&c.engine, "engine", "cpu", "cpu|gpu|multigpu")
	fs.Float64Var(&c.evalue, "E", 10.0, "report hits with E-value <= this")
	fs.BoolVar(&opts.ComputeAlignments, "alignments", false, "render domain alignments for reported hits (whole-database runs only)")
	fs.BoolVar(&opts.UseNull2, "null2", false, "apply the biased-composition score correction (not with -cluster/-cluster-workers: hmmworker cannot mirror it)")
	fs.StringVar(&c.tblout, "tblout", "", "write a machine-readable per-target table to this file")
	fs.IntVar(&c.devices, "devices", 4, "device count for -engine multigpu (per worker node with -cluster)")

	fs.DurationVar(&st.BatchTimeout, "batch-timeout", 0, "per-batch watchdog deadline for -engine multigpu -stream (0 disables); a timed-out batch is reassigned and its device quarantined")
	fs.BoolVar(&st.DisableFallback, "no-fallback", false, "fail instead of completing on the host CPU when every device (or cluster worker) is quarantined")

	fs.IntVar(&c.inProcess, "cluster", 0, "shard the streamed search across this many in-process worker nodes, each with -devices simulated devices (exercises the full cluster wire protocol; see cmd/hmmworker for real worker processes)")
	fs.StringVar(&c.workerList, "cluster-workers", "", "comma-separated hmmworker addresses (host:port) to shard the streamed search across over TCP")
	fs.DurationVar(&c.cluster.BatchDeadline, "cluster-deadline", 0, "per-batch assignment deadline in cluster mode (0 disables); a batch not answered in time is reclaimed and requeued, the late reply fenced")
	fs.BoolVar(&c.standby, "ha-standby", false, "run as the hot-standby coordinator: check that the -journal belongs to this run, and when the primary's <journal>.lock frees, resume the journal, dial -cluster-workers and take over the run (fencing the dead primary by epoch)")
	fs.Uint64Var(&c.cluster.Epoch, "ha-epoch", 0, "coordinator epoch for fencing: the primary runs at 1 (default), a standby takes over at 2 (default; below 2 is refused); chain further standbys with higher epochs")

	fs.StringVar(&c.ckpt.Path, "journal", "", "journal committed batches to this crash-safe file (-engine multigpu -stream, or a cluster); an interrupted run resumes with -resume")
	fs.BoolVar(&c.ckpt.Resume, "resume", false, "resume from the -journal file when it exists: journaled batches merge from disk and are not re-executed")
	fs.IntVar(&c.ckpt.SyncEvery, "journal-sync", 1, "fsync the journal every N appended batches (1 = every batch; larger trades re-executing up to N-1 batches after a crash for append throughput)")
	return c
}

// clustered reports whether the run shards across cluster workers.
func (c *config) clustered() bool { return c.inProcess+len(c.addrs) > 0 }

// vet resolves the parsed flags and refuses a combination the run
// cannot honour, rather than dropping a flag silently.
func (c *config) vet() (err error) {
	if err = c.run.Resolve(); err != nil {
		return err
	}
	c.addrs = splitAddrs(c.workerList)
	workers := c.inProcess + len(c.addrs)
	streamed, clustered := c.run.Batch > 0, c.clustered()
	journaled := c.ckpt.Path != "" || c.ckpt.Resume
	if c.plan, err = faultPlan(c.run.Faults, c.run.FaultSeed, c.engine, c.run.Batch, c.devices, workers, c.ckpt.Path); err != nil {
		return err
	}
	c.ckpt.Crash = c.plan.Crash
	switch {
	case streamed && c.ckpt.Resume && c.ckpt.Path == "":
		return errors.New("-resume requires -journal")
	case streamed && clustered && c.standby && (c.workerList == "" || c.inProcess > 0):
		return errors.New("-ha-standby requires TCP workers (-cluster-workers): the standby must reach the same worker processes the primary used")
	case streamed && clustered && c.standby && c.ckpt.Path == "":
		return errors.New("-ha-standby requires -journal: the primary's commit log is the handoff medium")
	case streamed && clustered && c.standby && c.ckpt.Resume:
		return errors.New("-ha-standby replaces -resume: the standby resumes the journal itself when it takes over")
	case streamed && !clustered && c.engine == "cpu" && journaled:
		return errors.New("-journal/-resume require -engine multigpu or -cluster/-cluster-workers")
	case streamed && !clustered && c.engine != "cpu" && c.engine != "multigpu":
		return errors.New("-stream requires -engine cpu or multigpu")
	case !streamed && clustered:
		return errors.New("-cluster/-cluster-workers require -stream")
	case !streamed && journaled:
		return errors.New("-journal/-resume require -engine multigpu -stream")
	case !streamed && c.engine != "cpu" && c.engine != "gpu" && c.engine != "multigpu":
		return fmt.Errorf("unknown -engine %q", c.engine)
	case streamed && c.run.Opts.ComputeAlignments:
		return errors.New("-alignments requires a whole-database run: streamed output, journal records and cluster payloads carry no alignments")
	case clustered && c.run.Opts.UseNull2:
		return errors.New("-null2 is not supported with -cluster/-cluster-workers: hmmworker cannot mirror it, so every handshake would fail")
	case (c.run.Stream.Verify != pipeline.VerifyOff || c.run.Stream.BatchTimeout != 0) &&
		(c.engine != "multigpu" || !streamed || clustered):
		return errors.New("-verify and -batch-timeout require -engine multigpu -stream without -cluster/-cluster-workers")
	}
	return nil
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hmmsearch [flags] <query.hmm> <targets.fasta>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	check(c.vet())
	sk, err := c.obs.Open()
	check(err)
	sk.Apply(&c.run.Opts)
	streamed := c.run.Batch > 0

	// The resumable streamed runs install the two-stage SIGINT policy
	// (internal/drainctx) before the slow calibration in pipeline.New,
	// so an early SIGINT is drained, not fatal: the first drains —
	// in-flight batches finish and are journaled, then the run returns
	// a partial result — and the second aborts via ctx.
	ctx, drain := context.Background(), (<-chan struct{})(nil)
	if streamed && (c.engine == "multigpu" || c.clustered()) {
		var stop func()
		ctx, drain, stop = drainctx.Notify("hmmsearch", os.Stderr, os.Interrupt)
		defer stop()
	}

	abc := alphabet.New()
	hf, err := os.Open(flag.Arg(0))
	check(err)
	query, err := hmm.Read(hf, abc)
	hf.Close()
	check(err)
	ff, err := os.Open(flag.Arg(1))
	check(err)
	defer ff.Close()
	var db *seq.Database
	targetLen := c.run.TargetLen
	if !streamed {
		db, err = seq.ReadFASTA(ff, abc)
		check(err)
		targetLen = int(db.MeanLen())
	}
	pl, err := pipeline.New(query, targetLen, c.run.Opts)
	check(err)

	if streamed {
		c.stream(ctx, drain, pl, query, ff)
	} else {
		c.search(pl, query, db)
	}
	check(sk.Flush(func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}))
}

// search runs the whole-database search on the -engine and prints its
// hits, with alignments when asked.
func (c *config) search(pl *pipeline.Pipeline, query *hmm.Plan7, db *seq.Database) {
	var res *pipeline.Result
	var err error
	switch c.engine {
	case "cpu":
		res, err = pl.RunCPU(db)
	case "gpu":
		dev := simt.NewDevice(simt.TeslaK40())
		dev.Mode = c.run.Mode
		res, err = pl.RunGPU(dev, c.run.Mem, db)
	case "multigpu":
		res, err = pl.RunMultiGPU(simt.NewSystem(simt.GTX580(), c.devices).SetMode(c.run.Mode), c.run.Mem, db)
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
		if h.EValue > c.evalue {
			continue
		}
		fmt.Printf("%-12.3g %-28s %10.2f %10.2f %10.2f %10.3g\n",
			h.EValue, h.Name, h.FwdBits, h.VitBits, h.MSVBits, h.PValue)
		shown++
		if c.run.Opts.ComputeAlignments {
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

	c.writeTblout(query.Name, res)
}

// writeTblout writes the -tblout table when one is asked for, in the
// shared pipeline.WriteTblout format, so hmmserved responses byte-diff
// cleanly against this file.
func (c *config) writeTblout(queryName string, res *pipeline.Result) {
	if c.tblout == "" {
		return
	}
	fh, err := os.Create(c.tblout)
	check(err)
	err = pipeline.WriteTblout(fh, queryName, res)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	check(err)
	fmt.Printf("\nper-target table written to %s\n", c.tblout)
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

// stream runs the streamed search the flags select — on the host CPU,
// across -devices simulated devices (residue-balanced batches fed to
// whichever device frees up first), or sharded over cluster workers as
// primary or hot standby — and prints its report. The runs differ only
// in the pipeline.Run* call and the lines above the hits. An injected
// journal crash or coordinator kill exits with status 3, so recovery
// tests can tell the simulated death from a real failure.
func (c *config) stream(ctx context.Context, drain <-chan struct{}, pl *pipeline.Pipeline, query *hmm.Plan7, fasta io.Reader) {
	cfg := c.run.Stream
	cfg.Drain = drain
	if c.ckpt.Path != "" {
		cfg.Checkpoint = &c.ckpt
	}
	if c.clustered() && !c.standby && c.ckpt.Path != "" {
		// Hold the journal's flock for the whole run so a hot standby's
		// takeover gates on this process's death: the kernel frees the
		// lock when we exit, however we exit.
		release, err := cluster.AcquireFileLeadership(c.ckpt.Path+".lock", cluster.DefaultLeadershipPoll)(ctx)
		check(err)
		defer release()
	}

	var res *pipeline.Result
	var err error
	switch {
	case c.clustered():
		res, err = c.runCluster(ctx, pl, fasta, cfg)
	case c.engine == "multigpu":
		sys := simt.NewSystem(simt.GTX580(), c.devices).SetMode(c.run.Mode)
		check(sys.ApplyFaults(c.plan.Devices))
		res, err = pl.RunMultiGPUStreamContext(ctx, sys, c.run.Mem, fasta, cfg)
	default:
		res, err = pl.RunCPUStream(fasta, c.run.Batch)
	}
	if errors.Is(err, checkpoint.ErrInjectedCrash) || errors.Is(err, cluster.ErrInjectedCoordinatorKill) {
		fmt.Fprintf(os.Stderr, "hmmsearch: %v\n", err)
		os.Exit(3)
	}
	check(err)

	budget := cfg.BatchResidues
	balanced := func(batches int) {
		fmt.Printf("Query:    %s (M=%d, streamed in %d residue-balanced batches of ~%d residues)\n",
			query.Name, query.M, batches, budget)
	}
	switch extra := res.Extra.(type) {
	case *pipeline.MultiGPUStreamExtra:
		balanced(extra.Schedule.Batches)
		fmt.Printf("Devices:  %d x %s\n", c.devices, simt.GTX580().Name)
		fmt.Println(extra.Schedule.String())
		c.printRecovery(extra.Checkpoint, extra.Drained, "hmmsearch -engine multigpu -stream", budget)
	case *pipeline.ClusterStreamExtra:
		rep := extra.Cluster
		balanced(rep.Batches)
		fmt.Println(rep.String())
		if rep.Failovers > 0 {
			fmt.Printf("Failover: took over at epoch %d after reading %d committed batches from the primary's journal\n",
				rep.Epoch, rep.StandbyTailed)
		}
		c.printRecovery(extra.Checkpoint, extra.Drained, "hmmsearch -stream", budget)
	default:
		fmt.Printf("Query:    %s (M=%d, streamed in batches of %d)\n", query.Name, query.M, c.run.Batch)
	}
	c.printStreamed(query.Name, res)
}

// runCluster shards the stream across the cluster workers: in-process
// nodes (-cluster, each driving -devices simulated devices over the
// full wire protocol), TCP hmmworker processes (-cluster-workers), or
// both, in-process first. Worker loss is detected by heartbeat and
// repaired by exactly-once requeue; with every worker gone the run
// degrades to the local CPU unless -no-fallback. The coordinator
// reuses the streamed run's journal as its commit log.
func (c *config) runCluster(ctx context.Context, pl *pipeline.Pipeline, fasta io.Reader, cfg pipeline.StreamConfig) (*pipeline.Result, error) {
	ccfg := c.cluster
	ccfg.Mode = byte(c.run.Mode)
	ccfg.Inject = c.plan.Cluster
	ccfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hmmsearch: "+format+"\n", args...)
	}
	if c.inProcess > 0 {
		ccfg.Workers = pl.InProcessClusterWorkers(cfg, ccfg.Mode, c.inProcess, c.devices,
			func() cluster.Exec {
				return pl.ClusterExecGPU(simt.NewSystem(simt.GTX580(), c.devices).SetMode(c.run.Mode), c.run.Mem)
			})
	}
	for _, addr := range c.addrs {
		ccfg.Workers = append(ccfg.Workers, cluster.WorkerSpec{
			Name: addr,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			},
		})
	}
	if c.standby {
		// -ha-epoch is the epoch the standby takes over at (2 unless set).
		ccfg.Standby = &cluster.Lease{}
	}
	return pl.RunClusterStreamContext(ctx, fasta, cfg, ccfg)
}

// printRecovery prints a journaled streamed run's Journal: line and,
// when the run drained before the end of the stream, how to resume it;
// resume is the command line up to its -batchres flag.
func (c *config) printRecovery(st *checkpoint.Stats, drained bool, resume string, batchResidues int64) {
	if st != nil {
		fmt.Printf("Journal:  %s (%d batches journaled, %d replayed, %d torn-tail dropped, %d fsyncs)\n",
			c.ckpt.Path, st.Journaled, st.Replayed, st.DroppedTail, st.Syncs)
	}
	if drained {
		fmt.Printf("Run drained before the end of the stream: partial results only.\n")
		if c.ckpt.Path != "" {
			fmt.Printf("Resume with: %s -batchres %d -journal %s -resume ...\n",
				resume, batchResidues, c.ckpt.Path)
		}
	}
}

// printStreamed prints a streamed run's stage counts and its hits up to
// -E, and writes the -tblout table.
func (c *config) printStreamed(queryName string, res *pipeline.Result) {
	fmt.Printf("Pipeline: MSV %d/%d passed; Viterbi %d; Forward hits %d\n\n",
		res.MSV.Out, res.MSV.In, res.Viterbi.Out, len(res.Hits))
	fmt.Printf("%-12s %-28s %10s\n", "E-value", "sequence", "fwd bits")
	shown := 0
	for _, h := range res.Hits {
		if h.EValue > c.evalue {
			continue
		}
		fmt.Printf("%-12.3g %-28s %10.2f\n", h.EValue, h.Name, h.FwdBits)
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no hits below the E-value threshold)")
	}
	c.writeTblout(queryName, res)
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

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmmsearch: %v\n", err)
		os.Exit(1)
	}
}
