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
// -batchres/-stream/-targlen here must mirror the coordinator's
// flags. The simulator cost-model mode (-sim) must match too.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"syscall"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/drainctx"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obsio"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/simt"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "TCP address to accept coordinator connections on (port 0 picks a free port, printed on startup)")
		name     = flag.String("name", "", "worker name reported in handshakes and coordinator logs (default: the listen address)")
		capacity = flag.Int("capacity", 0, "batches accepted in flight (0 = -devices)")
		engine   = flag.String("engine", "gpu", "batch engine: gpu (simulated devices) | cpu")
		devices  = flag.Int("devices", 1, "simulated device count for -engine gpu")
		mem      = flag.String("mem", "auto", "GPU memory configuration: auto|shared|global")
		sim      = flag.String("sim", "cycles", "simulator mode: cycles or fast (must match the coordinator's -sim)")
		workers  = flag.Int("workers", 0, "host worker goroutines (0 = GOMAXPROCS)")
		stream   = flag.Int("stream", 0, "coordinator's -stream value (with -targlen, derives the batch residue budget when -batchres is 0)")
		batchres = flag.Int64("batchres", 0, "coordinator's residue budget per batch (0 = stream * targlen); part of the handshake fingerprint")
		targlen  = flag.Int("targlen", 350, "coordinator's assumed target length for -stream")
		trace    = flag.String("trace", "", "write a span timeline of this worker's batches to this file on exit")
		traceFmt = flag.String("traceformat", "chrome", "trace file format: chrome | jsonl")
		metrics  = flag.String("metrics", "", "write this worker's counters to this file in Prometheus text format on exit")
		kprof    = flag.String("kprof", "", "write a kernel-grained profile of this worker's launches to this file as JSON on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hmmworker [flags] <query.hmm>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	budget := *batchres
	if budget <= 0 {
		budget = int64(*stream) * int64(*targlen)
	}
	if budget <= 0 {
		fatalf("a batch residue budget is required: set -batchres, or -stream (with -targlen) to mirror the coordinator")
	}

	simMode, err := simt.ParseMode(*sim)
	check(err)
	memCfg, err := gpu.ParseMemConfig(*mem)
	check(err)

	hf, err := os.Open(flag.Arg(0))
	check(err)
	abc := alphabet.New()
	query, err := hmm.Read(hf, abc)
	check(err)
	hf.Close()

	// Observability sinks share the hmmsearch flag semantics (same
	// internal/obsio code): spans per batch, Prometheus counters, and a
	// kernel-grained profile, written on exit. Apply guards against the
	// typed-nil hazard — an unset *kernprof.Collector must never be
	// assigned into the device's Profiler interface.
	sk, err := obsio.New(*trace, *traceFmt, *metrics, *kprof)
	check(err)

	// The pipeline must calibrate exactly as the coordinator's does —
	// pipeline.New is deterministic given (query, targlen, opts), and
	// the resulting Gumbel/exponential parameters are part of the
	// handshake fingerprint (observability options are excluded from
	// the fingerprint; they cannot change results).
	opts := pipeline.DefaultOptions()
	opts.Workers = *workers
	sk.Apply(&opts)
	pl, err := pipeline.New(query, *targlen, opts)
	check(err)

	cfg := pipeline.StreamConfig{BatchResidues: budget}
	slots := *capacity
	if slots <= 0 {
		slots = *devices
	}
	wname := *name

	var exec = pl.ClusterExecCPU()
	switch *engine {
	case "cpu":
	case "gpu":
		sys := simt.NewSystem(simt.GTX580(), *devices).SetMode(simMode)
		exec = pl.ClusterExecGPU(sys, memCfg)
	default:
		fatalf("unknown -engine %q (want gpu or cpu)", *engine)
	}

	ln, err := net.Listen("tcp", *listen)
	check(err)
	if wname == "" {
		wname = ln.Addr().String()
	}
	ws := pl.NewWorkerServer(cfg, byte(simMode), wname, slots, exec)
	ws.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hmmworker: "+format+"\n", args...)
	}

	// Scripts scrape this line to learn the bound port under -listen :0.
	fmt.Printf("hmmworker: %s listening on %s (%s, capacity %d, batchres %d)\n",
		wname, ln.Addr(), *engine, slots, budget)
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
