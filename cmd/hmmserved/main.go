// Command hmmserved runs the resident, overload-safe HMM search
// service (internal/serve): it loads one or more target databases into
// packed resident form at startup, keeps a bounded LRU of calibrated
// profiles hot, and multiplexes concurrent HTTP queries onto a shared
// pool of simulated devices.
//
//	hmmserved -listen :8731 -db swiss=targets.fasta -stream 2000 -devices 2 -sim fast
//
// Clients POST a profile HMM to /search?db=<name> and receive the
// same per-target table the one-shot CLI writes with -tblout —
// byte-identical, whether computed fresh, served from the result
// cache, or degraded to the host CPU after device faults:
//
//	curl --data-binary @query.hmm 'localhost:8731/search?db=swiss'
//
// Overload is shed with 429 + Retry-After (token bucket plus a bounded
// fair queue); /healthz and /readyz report device and queue state;
// /metrics serves Prometheus text. The first SIGTERM/SIGINT drains
// gracefully — admission stops, queued queries are refused into the
// drain journal, in-flight queries finish — and the process exits 0.
// A second signal aborts in-flight queries mid-kernel and exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/drainctx"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/serve"
	"hmmer3gpu/internal/simt"
)

// dbFlags collects repeatable -db name=path mappings.
type dbFlags map[string]string

func (d dbFlags) String() string {
	var parts []string
	for name, path := range d {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

func (d dbFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := d[name]; dup {
		return fmt.Errorf("database %q given twice", name)
	}
	d[name] = path
	return nil
}

func main() {
	dbs := dbFlags{}
	flag.Var(dbs, "db", "serve this database as name=path/to/targets.fasta (repeatable)")
	var (
		listen   = flag.String("listen", ":8731", "HTTP listen address")
		stream   = flag.Int("stream", 0, "database chunking: batches of this many sequences (must match the one-shot CLI's -stream for byte-identical output)")
		batchres = flag.Int64("batchres", 0, "residue budget per batch (0 = stream * targlen; must match the CLI's -batchres)")
		targlen  = flag.Int("targlen", 350, "assumed typical target length for calibration (must match the CLI's -targlen)")
		workers  = flag.Int("workers", 0, "host worker goroutines per query (0 = GOMAXPROCS)")
		mem      = flag.String("mem", "auto", "GPU memory configuration: auto|shared|global")
		sim      = flag.String("sim", "cycles", "simulator mode: cycles or fast; results are identical")
		devices  = flag.Int("devices", 2, "simulated device pool size")
		devsPerQ = flag.Int("devs-per-query", 1, "devices one query's scheduler spans (pool/devs-per-query queries run concurrently)")

		rate     = flag.Float64("rate", 0, "admission token bucket: sustained queries/second (0 disables the bucket)")
		burst    = flag.Float64("burst", 0, "admission token bucket: burst size")
		maxConc  = flag.Int("max-concurrent", 0, "queries executing simultaneously (0 = devices / devs-per-query)")
		maxQueue = flag.Int("max-queue", 0, "queries waiting for a slot before shedding (0 = max-concurrent, negative = no queue)")
		qTimeout = flag.Duration("query-timeout", 2*time.Minute, "per-query deadline; requests may ask for less via ?timeout= but never more")

		profileCap = flag.Int("profiles", 16, "calibrated-profile LRU capacity")
		resultCap  = flag.Int("cache", 256, "result cache capacity (entries)")

		faultSpec   = flag.String("faults", "", "inject device faults at startup (chaos testing): the dev<N> clauses of the hmmsearch -faults grammar, e.g. \"dev0:dead;dev1:p=0.2\"")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for probabilistic fault injection")
		cordonAfter = flag.Int("cordon-after", 2, "consecutive quarantined leases before a device is cordoned out of the pool")
		maxRetries  = flag.Int("max-retries", 0, "per-batch retry budget after transient device faults (0 = default)")
		quarAfter   = flag.Int("quarantine-after", 0, "consecutive device failures before in-run quarantine (0 = default)")
		verify      = flag.String("verify", "off", "result-integrity policy: off | guards | dmr")

		drainJournal = flag.String("drain-journal", "", "journal queries refused during drain to this file, one JSON line each; on startup any existing journal is replayed before /readyz flips healthy")
		replayOut    = flag.String("replay-out", "", "write each replayed query's response to this directory as replay-<n>.tbl (audit artifacts)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hmmserved -db name=targets.fasta [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if len(dbs) == 0 {
		fatalf("no databases: give at least one -db name=path")
	}
	budget := *batchres
	if budget <= 0 {
		if *stream <= 0 {
			fatalf("set -stream or -batchres (the chunking must match the one-shot CLI)")
		}
		budget = int64(*stream) * int64(*targlen)
	}
	mode, err := simt.ParseMode(*sim)
	check(err)
	memCfg, err := gpu.ParseMemConfig(*mem)
	check(err)
	verifyMode, err := pipeline.ParseVerifyMode(*verify)
	check(err)

	abc := alphabet.New()
	resident := make(map[string]*pipeline.ResidentDB, len(dbs))
	for name, path := range dbs {
		fh, err := os.Open(path)
		check(err)
		rdb, err := pipeline.LoadResidentDB(name, fh, abc, budget)
		fh.Close()
		if err != nil {
			fatalf("load %s: %v", path, err)
		}
		resident[name] = rdb
		fmt.Printf("hmmserved: loaded %s: %d sequences, %d residues in %d batches\n",
			name, rdb.Seqs, rdb.Residues, len(rdb.Batches))
	}

	srv, err := serve.New(serve.Config{
		DBs:             resident,
		TargetLen:       *targlen,
		BatchResidues:   budget,
		Mem:             memCfg,
		Mode:            mode,
		Devices:         *devices,
		DevsPerQuery:    *devsPerQ,
		Faults:          *faultSpec,
		FaultSeed:       *faultSeed,
		CordonAfter:     *cordonAfter,
		Rate:            *rate,
		Burst:           *burst,
		MaxConcurrent:   *maxConc,
		MaxQueue:        *maxQueue,
		QueryTimeout:    *qTimeout,
		MaxRetries:      *maxRetries,
		QuarantineAfter: *quarAfter,
		Verify:          verifyMode,
		Workers:         *workers,
		ProfileCap:      *profileCap,
		ResultCap:       *resultCap,
		DrainJournal:    *drainJournal,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hmmserved: "+format+"\n", args...)
		},
	})
	check(err)

	ln, err := net.Listen("tcp", *listen)
	check(err)
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("hmmserved: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Replay any drain journal a previous life left behind, through the
	// normal admission path, before advertising readiness: a restarted
	// process answers every query it accepted before dying, and /readyz
	// stays 503 until it has. Replay errors are logged, not fatal — a
	// corrupt journal must not turn a restart into a crash loop.
	if *drainJournal != "" {
		rsum, err := srv.ReplayDrainJournal(*drainJournal, *replayOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmmserved: drain-journal replay: %v\n", err)
		}
		if rsum.Replayed > 0 || rsum.Failed > 0 {
			fmt.Printf("hmmserved: replayed %d journaled queries (%d failed)\n",
				rsum.Replayed, rsum.Failed)
		}
	}
	srv.MarkReady()
	fmt.Printf("hmmserved: ready\n")

	// Two-stage termination: the first SIGTERM/SIGINT closes drain and
	// we stop admitting, finish in-flight queries, journal the queued
	// ones, and exit 0; a second signal cancels ctx, aborting queries
	// mid-kernel, and we exit 1.
	ctx, drain, stop := drainctx.Notify("hmmserved", os.Stderr, os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		fatalf("serve: %v", err)
	case <-drain:
	}

	go func() {
		<-ctx.Done()
		srv.Abort()
	}()
	sum := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutCtx)
	cancel()
	fmt.Printf("hmmserved: drained: %d in-flight completed, %d queued journaled\n",
		sum.Completed, sum.Journaled)
	if ctx.Err() != nil {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmserved: "+format+"\n", args...)
	os.Exit(1)
}
