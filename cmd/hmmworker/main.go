// Command hmmworker is a cluster worker node for hmmsearch -stream.
// It loads the same query profile as the coordinator, listens on TCP,
// and computes the batches the coordinator assigns it over the
// length-prefixed, CRC-framed cluster wire protocol
// (internal/cluster).
//
//	hmmworker -listen 127.0.0.1:9101 -devices 2 -batchres 21000 query.hmm
//	hmmsearch -stream 60 -batchres 21000 -cluster-workers 127.0.0.1:9101 query.hmm db.fasta
//
// The handshake carries a fingerprint of the model, thresholds,
// calibration, and batch residue budget; a worker whose fingerprint
// disagrees with the coordinator's is rejected at connect, so
// -batchres/-stream/-targlen here must mirror the coordinator's flags:
// both derive the budget with pipeline.Flags.Budget. The simulator
// cost-model mode (-sim) must match too.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"syscall"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/drainctx"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obsio"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/simt"
)

// config is hmmworker's command line: the batching, device and
// observability flags it shares with hmmsearch, plus its own.
type config struct {
	run                  *pipeline.Flags
	obs                  obsio.Flags
	listen, name, engine string
	capacity, devices    int
}

// newConfig declares hmmworker's flags on fs.
func newConfig(fs *flag.FlagSet) *config {
	c := &config{run: pipeline.NewFlags()}
	c.run.Register(fs, "stream", "batchres", "targlen", "workers", "mem", "sim")
	c.obs.Register(fs, "trace", "traceformat", "metrics", "kprof")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "TCP address to accept coordinator connections on (port 0 picks a free port, printed on startup)")
	fs.StringVar(&c.name, "name", "", "worker name reported in handshakes and coordinator logs (default: the listen address)")
	fs.IntVar(&c.capacity, "capacity", 0, "batches accepted in flight (0 = -devices)")
	fs.StringVar(&c.engine, "engine", "gpu", "batch engine: gpu (simulated devices) | cpu")
	fs.IntVar(&c.devices, "devices", 1, "simulated device count for -engine gpu")
	return c
}

// vet refuses a worker without the coordinator's batch budget, then
// resolves the shared flags.
func (c *config) vet() error {
	if c.run.Budget() <= 0 {
		return errors.New("a batch residue budget is required: set -batchres, or -stream (with -targlen) to mirror the coordinator")
	}
	return c.run.Resolve()
}

func main() {
	c := newConfig(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hmmworker [flags] <query.hmm>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	check(c.vet())

	hf, err := os.Open(flag.Arg(0))
	check(err)
	abc := alphabet.New()
	query, err := hmm.Read(hf, abc)
	check(err)
	hf.Close()

	// Observability sinks share the hmmsearch flag semantics (same
	// internal/obsio code): spans per batch, Prometheus counters, and a
	// kernel-grained profile, written on exit.
	sk, err := c.obs.Open()
	check(err)
	sk.Apply(&c.run.Opts)

	// The pipeline must calibrate exactly as the coordinator's does —
	// pipeline.New is deterministic given (query, targlen, opts), and
	// the resulting Gumbel/exponential parameters are part of the
	// handshake fingerprint (observability options are excluded from
	// the fingerprint; they cannot change results).
	pl, err := pipeline.New(query, c.run.TargetLen, c.run.Opts)
	check(err)

	slots := c.capacity
	if slots <= 0 {
		slots = c.devices
	}
	var exec = pl.ClusterExecCPU()
	switch c.engine {
	case "cpu":
	case "gpu":
		sys := simt.NewSystem(simt.GTX580(), c.devices).SetMode(c.run.Mode)
		exec = pl.ClusterExecGPU(sys, c.run.Mem)
	default:
		fatalf("unknown -engine %q (want gpu or cpu)", c.engine)
	}

	ln, err := net.Listen("tcp", c.listen)
	check(err)
	wname := c.name
	if wname == "" {
		wname = ln.Addr().String()
	}
	ws := pl.NewWorkerServer(c.run.Stream, byte(c.run.Mode), wname, slots, exec)
	ws.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hmmworker: "+format+"\n", args...)
	}

	// Scripts scrape this line to learn the bound port under -listen :0.
	fmt.Printf("hmmworker: %s listening on %s (%s, capacity %d, batchres %d)\n",
		wname, ln.Addr(), c.engine, slots, c.run.Stream.BatchResidues)
	os.Stdout.Sync()

	// Two-stage shutdown: the first SIGINT/SIGTERM drains — in-flight
	// batches finish and ship their results, new assignments are
	// refused so the coordinator requeues them, and Serve returns once
	// the coordinator disconnects. A second signal cancels ctx and
	// aborts in-flight batches mid-kernel.
	ctx, drain, stop := drainctx.Notify("hmmworker", os.Stderr, os.Interrupt, syscall.SIGTERM)
	defer stop()
	ws.Drain = drain

	check(ws.Serve(ctx, ln))
	check(sk.Flush(func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}))
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmmworker: %v\n", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmworker: "+format+"\n", args...)
	os.Exit(1)
}
