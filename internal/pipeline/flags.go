package pipeline

import (
	"flag"
	"fmt"

	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/simt"
)

// Flags is the command-line surface hmmsearch, hmmworker, hmmserved
// and hmmbench share: each shared flag is declared once, in Register,
// and binds into the struct it configures. A command names the shared
// flags it takes; per-command flags (-devices, -engine) stay in the
// command. Resolve, after parsing, fills what needs a parser.
type Flags struct {
	// Opts receives -workers.
	Opts Options
	// Stream receives -max-retries and -quarantine-after into its
	// Policy, and -verify; Resolve sets its BatchResidues to Budget.
	Stream StreamConfig
	// Batch (-stream) is sequences per streamed batch, 0 loads the
	// database whole; BatchRes (-batchres) and TargetLen (-targlen)
	// complete the batching group.
	Batch     int
	BatchRes  int64
	TargetLen int
	// Mem (-mem) and Mode (-sim) are set by Resolve.
	Mem  gpu.MemConfig
	Mode simt.Mode
	// Faults (-faults) and FaultSeed (-fault-seed) are faults.Parse's
	// spec and seed.
	Faults    string
	FaultSeed int64

	mem, sim, verify string
}

// NewFlags returns the shared flags at their defaults.
func NewFlags() *Flags {
	return &Flags{Opts: DefaultOptions(), TargetLen: 350, FaultSeed: 1,
		mem: "auto", sim: "cycles", verify: "off"}
}

// Register declares the named shared flags on fs, each defaulting to
// f's current value. A name outside the shared set panics: it is a
// programming error, caught by any test that builds the command's
// flags.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "stream":
			fs.IntVar(&f.Batch, name, f.Batch, "stream the database in batches of this many sequences (constant memory); 0 loads it whole. hmmworker and hmmserved mirror hmmsearch's value: with -targlen it derives the batch residue budget when -batchres is 0")
		case "batchres":
			fs.Int64Var(&f.BatchRes, name, f.BatchRes, "residue budget per streamed batch (0 = stream * targlen); part of the cluster handshake and journal fingerprint, so hmmworker and hmmserved must mirror hmmsearch's value")
		case "targlen":
			fs.IntVar(&f.TargetLen, name, f.TargetLen, "assumed typical target length for -stream: the length model and calibration use it, since an unread stream has no mean (must match across hmmsearch, hmmworker and hmmserved)")
		case "workers":
			fs.IntVar(&f.Opts.Workers, name, f.Opts.Workers, "host worker goroutines (0 = GOMAXPROCS); hmmserved applies it per query")
		case "mem":
			fs.StringVar(&f.mem, name, f.mem, "GPU memory configuration: auto|shared|global")
		case "sim":
			fs.StringVar(&f.sim, name, f.sim, "simulator mode: cycles (cycle-accurate counters) or fast (functional, no accounting); results are identical, and hmmworker must match the coordinator's")
		case "faults":
			fs.StringVar(&f.Faults, name, f.Faults, "inject faults: \"<scope>:<fault>[,...][;...]\" with scopes dev<N> (hmmsearch -engine multigpu -stream, hmmserved: p=P, at=N, hang=N, dead[=N], flip@p=P, flip@shared=P, flip@launch=N), w<N> (-cluster/-cluster-workers: refuse=N, kill=N, killp=P, torn=N, stall=N@D, dead=1, hello=bad), coord (kill=N, exit status 3) and journal (-journal: crash=N[@before-append|@after-append|@after-sync], exit status 3); a clause the run cannot honour is an error — e.g. \"dev0:p=0.2;dev2:dead\" or \"w0:kill=1,dead=1;journal:crash=3\"")
		case "fault-seed":
			fs.Int64Var(&f.FaultSeed, name, f.FaultSeed, "seed for the probabilistic faults of -faults (p=, killp=, flip@p=, flip@shared=)")
		case "max-retries":
			fs.IntVar(&f.Stream.Policy.MaxRetries, name, f.Stream.Policy.MaxRetries, "per-batch retry budget after transient device faults (0 = default, negative disables)")
		case "quarantine-after":
			fs.IntVar(&f.Stream.Policy.QuarantineAfter, name, f.Stream.Policy.QuarantineAfter, "consecutive device failures before quarantine (0 = default, negative disables)")
		case "verify":
			fs.StringVar(&f.verify, name, f.verify, "result-integrity policy against silent data corruption on devices: off | guards (discard and requeue corrupt batches) | dmr (re-execute corrupt batches on the host CPU)")
		default:
			panic(fmt.Sprintf("pipeline: -%s is not a shared flag", name))
		}
	}
}

// Budget is the residue budget per batch: -batchres when set, else
// -stream × -targlen. It is part of the handshake and journal
// fingerprint, so this is the one place it is derived.
func (f *Flags) Budget() int64 {
	if f.BatchRes > 0 {
		return f.BatchRes
	}
	return int64(f.Batch) * int64(f.TargetLen)
}

// Resolve parses -sim, -mem and -verify into Mode, Mem and
// Stream.Verify, and sets Stream.BatchResidues to Budget.
func (f *Flags) Resolve() (err error) {
	if f.Mode, err = simt.ParseMode(f.sim); err != nil {
		return err
	}
	if f.Mem, err = gpu.ParseMemConfig(f.mem); err != nil {
		return err
	}
	if f.Stream.Verify, err = ParseVerifyMode(f.verify); err != nil {
		return err
	}
	f.Stream.BatchResidues = f.Budget()
	return nil
}
