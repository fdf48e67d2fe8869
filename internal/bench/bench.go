// Package bench regenerates every table and figure of the paper's
// evaluation section (§IV): the pipeline statistics of Figure 1, the
// per-stage speedup/occupancy sweeps of Figure 9, the combined-pipeline
// speedups of Figure 10, the multi-GPU scaling of Figure 11, the Pfam
// model-size statistics, and a set of ablations for the design choices
// of §III. Workloads are scaled-down synthetic equivalents of the
// paper's databases (see internal/workload); speedups are ratios of
// modelled baseline and device times over identical DP-cell workloads,
// so they are invariant to the scale factor.
package bench

import (
	"fmt"
	"io"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/workload"
)

// Config controls workload sizing for the harness.
type Config struct {
	// Seed fixes every generator in the harness.
	Seed int64
	// Sizes is the model-size sweep (default: the paper's eight sizes).
	Sizes []int
	// MSVCellBudget and VitCellBudget bound the DP cells per simulated
	// kernel run; speedups are cell-normalised, so the budgets trade
	// harness runtime against statistical smoothness only.
	MSVCellBudget int64
	VitCellBudget int64
	// Workers caps host-side parallelism (0 = GOMAXPROCS).
	Workers int
	// Trace, when non-nil, receives spans from the experiments that run
	// full pipelines (hmmbench -trace); nil keeps tracing off.
	Trace *obs.Tracer
	// Mode selects the simulator's execution mode for every device the
	// harness creates (hmmbench -sim). The zero value is cycle-accurate;
	// ModeFast skips all cost accounting, so the figure experiments'
	// modelled columns read zero and only wall-clock comparisons are
	// meaningful.
	Mode simt.Mode
	// Prof, when non-nil, is attached to every device the harness
	// creates and collects kernel-grained profiles (hmmbench -kprof);
	// sweep experiments tag launches with their sweep coordinates.
	Prof *kernprof.Collector
}

// DefaultConfig returns budgets sized for a laptop run of the full
// figure set (a few minutes).
func DefaultConfig() Config {
	return Config{
		Seed:          20150525, // IPDPSW'15 :-)
		Sizes:         append([]int(nil), workload.PaperModelSizes...),
		MSVCellBudget: 12_000_000,
		VitCellBudget: 3_000_000,
	}
}

// QuickConfig returns a reduced sweep for unit tests.
func QuickConfig() Config {
	return Config{
		Seed:          7,
		Sizes:         []int{48, 400, 1528},
		MSVCellBudget: 1_500_000,
		VitCellBudget: 600_000,
	}
}

// DBKind selects one of the paper's two evaluation databases.
type DBKind int

const (
	// Swissprot is the curated database (459,565 seqs, 171.7M residues,
	// high homology to typical queries).
	Swissprot DBKind = iota
	// Envnr is the environmental database (6,549,721 seqs, 1.29B
	// residues, low homology).
	Envnr
)

func (k DBKind) String() string {
	if k == Swissprot {
		return "Swissprot"
	}
	return "Envnr"
}

// FullResidues returns the paper database's total residue count, the
// scale the harness extrapolates modelled times to.
func (k DBKind) FullResidues() int64 {
	if k == Swissprot {
		return 171731281
	}
	return 1290247663
}

// spec returns a workload spec of the right shape holding roughly
// budget DP cells against a model of size m.
func (k DBKind) spec(budget int64, m int, seed int64) workload.DBSpec {
	var s workload.DBSpec
	if k == Swissprot {
		s = workload.SwissprotLike(1, seed)
	} else {
		s = workload.EnvnrLike(1, seed)
	}
	n := int(budget / (int64(m) * int64(s.MeanLen)))
	if n < 8 {
		n = 8
	}
	s.NumSeqs = n
	return s
}

// specMinSeqs is like spec but enforces a floor on the sequence count
// (pass-fraction statistics need enough sequences).
func (k DBKind) specMinSeqs(budget int64, m int, seed int64, minSeqs int) workload.DBSpec {
	s := k.spec(budget, m, seed)
	if s.NumSeqs < minSeqs {
		s.NumSeqs = minSeqs
	}
	return s
}

// model builds the query model for one sweep point.
func (c Config) model(m int) (*hmm.Plan7, error) {
	return workload.Model(fmt.Sprintf("query-M%d", m), m, alphabet.New(), c.Seed+int64(m))
}

// database generates one budgeted database (with the kind's default
// homolog fraction planted from h).
func (c Config) database(k DBKind, budget int64, h *hmm.Plan7) (*seq.Database, error) {
	spec := k.spec(budget, h.M, c.Seed+int64(h.M)*2+int64(k))
	return workload.Generate(spec, h, alphabet.New())
}

// configuredProfiles returns the quantised filter profiles for h
// against targets of db's mean length.
func configuredProfiles(h *hmm.Plan7, db *seq.Database) (*profile.MSVProfile, *profile.VitProfile) {
	p := profile.Config(h)
	p.SetLength(int(db.MeanLen()))
	return profile.NewMSVProfile(p), profile.NewVitProfile(p)
}

// fprintf writes to w unless it is nil.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// k40 and gtx580 are the paper's device specs.
func k40() simt.DeviceSpec    { return simt.TeslaK40() }
func gtx580() simt.DeviceSpec { return simt.GTX580() }

// newDevice creates one device of the given spec in the configured
// simulation mode.
func (c Config) newDevice(spec simt.DeviceSpec) *simt.Device {
	d := simt.NewDevice(spec)
	d.Mode = c.Mode
	// The guard matters: assigning a nil *Collector would still make
	// the Profiler interface non-nil and turn on per-block sampling.
	if c.Prof != nil {
		d.Profiler = c.Prof
	}
	return d
}

// newSystem creates n identical devices in the configured simulation
// mode.
func (c Config) newSystem(spec simt.DeviceSpec, n int) *simt.System {
	sys := simt.NewSystem(spec, n).SetMode(c.Mode)
	if c.Prof != nil {
		sys.SetProfiler(c.Prof)
	}
	return sys
}

// modeBanner warns when a figure experiment runs in fast mode, where
// the modelled (counter-derived) columns are meaningless.
func (c Config) modeBanner(w io.Writer) {
	if c.Mode == simt.ModeFast {
		fprintf(w, "NOTE: -sim fast skips cycle accounting; modelled speedup columns read zero.\n")
		fprintf(w, "      Use -sim cycles for figures; benchmark/ measures wall-clock.\n")
	}
}
