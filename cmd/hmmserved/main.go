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
	"errors"
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
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/serve"
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

// config is hmmserved's command line: the batching, device and
// recovery flags it shares with hmmsearch, plus its own.
type config struct {
	run *pipeline.Flags
	dbs dbFlags
	srv serve.Config

	listen, replayOut string
}

// newConfig declares hmmserved's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{run: pipeline.NewFlags(), dbs: dbFlags{}}
	c.run.Register(fs, "stream", "batchres", "targlen", "workers", "mem", "sim",
		"faults", "fault-seed", "max-retries", "quarantine-after", "verify")
	srv := &c.srv
	fs.Var(c.dbs, "db", "serve this database as name=path/to/targets.fasta (repeatable)")
	fs.StringVar(&c.listen, "listen", ":8731", "HTTP listen address")
	fs.IntVar(&srv.Devices, "devices", 2, "simulated device pool size")
	fs.IntVar(&srv.DevsPerQuery, "devs-per-query", 1, "devices one query's scheduler spans (pool/devs-per-query queries run concurrently)")

	fs.Float64Var(&srv.Rate, "rate", 0, "admission token bucket: sustained queries/second (0 disables the bucket)")
	fs.Float64Var(&srv.Burst, "burst", 0, "admission token bucket: burst size")
	fs.IntVar(&srv.MaxConcurrent, "max-concurrent", 0, "queries executing simultaneously (0 = devices / devs-per-query)")
	fs.IntVar(&srv.MaxQueue, "max-queue", 0, "queries waiting for a slot before shedding (0 = max-concurrent, negative = no queue)")
	fs.DurationVar(&srv.QueryTimeout, "query-timeout", 2*time.Minute, "per-query deadline; requests may ask for less via ?timeout= but never more")

	fs.IntVar(&srv.ProfileCap, "profiles", 16, "calibrated-profile LRU capacity")
	fs.IntVar(&srv.ResultCap, "cache", 256, "result cache capacity (entries)")
	fs.IntVar(&srv.CordonAfter, "cordon-after", 2, "consecutive quarantined leases before a device is cordoned out of the pool (0 = default, negative never cordons)")

	fs.StringVar(&srv.DrainJournal, "drain-journal", "", "journal queries refused during drain to this checkpoint journal, each record fsync'd before its 503; on startup any existing journal is replayed, then emptied, before /readyz flips healthy")
	fs.StringVar(&c.replayOut, "replay-out", "", "write each replayed query's response to this directory as replay-<n>.tbl (audit artifacts)")
	return c
}

// vet refuses a server without databases or chunking, then resolves
// the shared flags into the serve.Config.
func (c *config) vet() error {
	if len(c.dbs) == 0 {
		return errors.New("no databases: give at least one -db name=path")
	}
	if c.run.BatchRes <= 0 && c.run.Batch <= 0 {
		return errors.New("set -stream or -batchres (the chunking must match the one-shot CLI)")
	}
	if err := c.run.Resolve(); err != nil {
		return err
	}
	r, srv := c.run, &c.srv
	srv.TargetLen, srv.BatchResidues = r.TargetLen, r.Stream.BatchResidues
	srv.Mem, srv.Mode, srv.Workers = r.Mem, r.Mode, r.Opts.Workers
	srv.Faults, srv.FaultSeed = r.Faults, r.FaultSeed
	srv.Policy, srv.Verify = r.Stream.Policy, r.Stream.Verify
	srv.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hmmserved: "+format+"\n", args...)
	}
	return nil
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: hmmserved -db name=targets.fasta [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	check(c.vet())

	abc := alphabet.New()
	c.srv.DBs = make(map[string]*pipeline.ResidentDB, len(c.dbs))
	for name, path := range c.dbs {
		fh, err := os.Open(path)
		check(err)
		rdb, err := pipeline.LoadResidentDB(name, fh, abc, c.srv.BatchResidues)
		fh.Close()
		if err != nil {
			fatalf("load %s: %v", path, err)
		}
		c.srv.DBs[name] = rdb
		fmt.Printf("hmmserved: loaded %s: %d sequences, %d residues in %d batches\n",
			name, rdb.Seqs, rdb.Residues, len(rdb.Batches))
	}

	srv, err := serve.New(c.srv)
	check(err)

	ln, err := net.Listen("tcp", c.listen)
	check(err)
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("hmmserved: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Replay any drain journal a previous life left behind, through the
	// normal admission path, before advertising readiness: a restarted
	// process answers every query it accepted before dying, and /readyz
	// stays 503 until it has. Replay errors are logged, not fatal — a
	// corrupt journal must not turn a restart into a crash loop — and
	// such a journal is left as it was found.
	if c.srv.DrainJournal != "" {
		rsum, err := srv.ReplayDrainJournal(c.srv.DrainJournal, c.replayOut)
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
	fmt.Printf("hmmserved: drained: %d in-flight completed, %d queued journaled, %d lost\n",
		sum.Completed, sum.Journaled, sum.Lost)
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
