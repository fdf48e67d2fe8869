// Package pipeline implements the HMMER 3.0 hmmsearch acceleration
// pipeline of Figure 1: the MSV filter screens every target sequence,
// survivors pass to the P7Viterbi filter, and only the small remainder
// reaches the full-precision Forward scoring stage. Stage thresholds
// are P-values over calibrated score distributions (Gumbel for the
// optimal-alignment filters, exponential tail for Forward), following
// the lambda = log 2 conjecture that lets Viterbi-style scores
// pre-screen for Forward scores.
//
// The cascade is one function (cascade) over a two-method seam with
// three backends — the host, one device, the static multi-device split
// — and a streamed run one driver (streamRun): batch source, journal
// replay, executor, token-gated journal-then-merge commit, finalize.
// The ten Run* entry points compose those and report identical hits.
//
// Documented simplifications relative to HMMER 3.0 (applied to every
// engine, so cross-engine comparisons remain exact): no bias
// composition filter between MSV and Viterbi, no domain
// post-processing after Forward, and the length model is configured
// once for the database's mean sequence length rather than per target
// (calibration uses the same length, keeping P-values consistent).
package pipeline

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/kernprof"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
)

// Thresholds are the stage P-value cutoffs; Default matches HMMER3's
// --F1/--F2/--F3 defaults.
type Thresholds struct {
	MSV     float64
	Viterbi float64
	Forward float64
}

// DefaultThresholds returns HMMER3's defaults: 0.02 / 1e-3 / 1e-5.
// With these, ~2% of random sequences survive MSV and ~0.1% survive
// Viterbi — the fractions of the paper's Figure 1.
func DefaultThresholds() Thresholds {
	return Thresholds{MSV: 0.02, Viterbi: 1e-3, Forward: 1e-5}
}

// Options configures a pipeline.
type Options struct {
	Thresholds Thresholds
	// Workers bounds host-side parallelism (0 = GOMAXPROCS).
	Workers int
	// Calibration controls the random-sequence score calibration.
	Calibration stats.CalibrateOptions
	// SkipForward disables the Forward stage (and its calibration);
	// the benchmark harness uses this because the paper's speedup
	// figures cover the MSV and Viterbi stages only.
	SkipForward bool
	// ComputeAlignments attaches Viterbi-traceback domain alignments
	// and posterior envelopes to each hit (O(L*M) memory per hit;
	// skipped for hits beyond alignmentCellCap DP cells).
	ComputeAlignments bool
	// UseNull2 applies HMMER's biased-composition score correction to
	// Forward scores before thresholding (posterior decode per
	// survivor; subject to the same alignmentCellCap).
	UseNull2 bool
	// Trace receives a span per search, stage, batch, and kernel
	// launch (nil disables tracing at ~zero cost).
	Trace *obs.Tracer
	// Metrics receives the run's merged counters — stage stats,
	// simulator kernel counters, scheduler utilization (nil disables).
	Metrics *obs.Registry
	// Profiler, when non-nil, is attached to every device the GPU
	// engines run on and collects one kernel-grained profile per launch
	// (see internal/kernprof); launches are tagged with the query's
	// model size ("m") and memory configuration ("mem").
	Profiler *kernprof.Collector
}

// DefaultOptions returns standard settings.
func DefaultOptions() Options {
	return Options{
		Thresholds:  DefaultThresholds(),
		Calibration: stats.DefaultCalibration(),
	}
}

// Hit is one sequence that survived all three stages.
type Hit struct {
	// Index is the sequence's database index; Name its identifier.
	Index int
	Name  string
	// MSVBits, VitBits and FwdBits are the stage bit scores.
	MSVBits float64
	VitBits float64
	FwdBits float64
	// PValue and EValue are derived from the Forward score.
	PValue float64
	EValue float64
	// Domains holds the optimal-alignment rendering per domain and
	// Envelopes the posterior-decoded domain extents (only when
	// Options.ComputeAlignments is set).
	Domains   []refimpl.DomainAlignment
	Envelopes []refimpl.Envelope
}

// StageStats records one stage's filtering behaviour plus its modelled
// baseline cost (used for the Figure 1 time split).
type StageStats struct {
	// In and Out are the sequence counts entering and surviving.
	In, Out int
	// Cells is the number of DP cells the stage processed.
	Cells int64
	// Wall is the measured wall-clock time of this stage in this run.
	Wall time.Duration
}

// PassFraction returns Out/In. A stage that saw no input returns 0,
// never NaN — report strings additionally render the undefined ratio
// as "-" via Summary.
func (s StageStats) PassFraction() float64 {
	if s.In == 0 {
		return 0
	}
	return float64(s.Out) / float64(s.In)
}

// Result is the outcome of one database search.
type Result struct {
	// Hits are the surviving sequences, best E-value first.
	Hits []Hit
	// MSV, Viterbi and Forward are the per-stage statistics.
	MSV, Viterbi, Forward StageStats
	// Extra carries engine-specific reports (e.g. GPU launch reports);
	// see the engine constructors.
	Extra any
}

// Pipeline is a configured, calibrated search for one query model.
type Pipeline struct {
	Prof *profile.Profile
	MSV  *profile.MSVProfile
	Vit  *profile.VitProfile

	// consensus holds the query's consensus residues for alignment
	// rendering.
	consensus []byte

	MSVGumbel stats.Gumbel
	VitGumbel stats.Gumbel
	FwdExp    stats.Exponential

	Opts Options
}

// New configures and calibrates a pipeline for query model h against
// targets of typical length targetLen.
func New(h *hmm.Plan7, targetLen int, opts Options) (*Pipeline, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if targetLen < 1 {
		return nil, fmt.Errorf("pipeline: target length %d < 1", targetLen)
	}
	p := profile.Config(h)
	p.SetLength(targetLen)
	pl := &Pipeline{
		Prof:      p,
		MSV:       profile.NewMSVProfile(p),
		Vit:       profile.NewVitProfile(p),
		consensus: h.Consensus(),
		Opts:      opts,
	}
	cal, err := Calibrate(p, pl.MSV, pl.Vit, opts.Calibration, opts.Workers, opts.SkipForward)
	if err != nil {
		return nil, err
	}
	pl.MSVGumbel, pl.VitGumbel, pl.FwdExp = cal.MSV, cal.Vit, cal.Fwd
	return pl, nil
}

// Calibration is the three fitted score distributions of one query.
type Calibration struct {
	MSV, Vit stats.Gumbel
	Fwd      stats.Exponential
}

// Calibrate fits the three score distributions by random-sequence
// simulation with the scorers the pipeline applies: the striped MSV
// and Viterbi filters and host Forward, on seeds opts.Seed, +1 and +2.
// The samples are scored on a pool of the given number of workers
// (0 = GOMAXPROCS) and fitted in the order they were drawn, so the
// result does not depend on the worker count. The calibration length
// is the profile's configured length, whatever opts.L says: it must
// match the scoring configuration (see the package comment).
// skipForward leaves Fwd zero.
func Calibrate(p *profile.Profile, mp *profile.MSVProfile, vp *profile.VitProfile,
	opts stats.CalibrateOptions, workers int, skipForward bool) (Calibration, error) {

	var cal Calibration
	var err error
	bg := p.Abc.Backgrounds()
	opts.L = p.L
	eng := cpu.Engine{Workers: workers}
	// sample draws the next seed's sequences.
	sample := func() *seq.Database {
		db := seq.NewDatabase("calibration")
		for _, dsq := range stats.SampleSeqs(opts, bg) {
			db.Add(&seq.Sequence{Residues: dsq})
		}
		opts.Seed++
		return db
	}
	filterBits := func(results []cpu.FilterResult) []float64 {
		bits := make([]float64, len(results))
		for i, r := range results {
			bits[i] = stats.BitsFromNats(r.Score)
		}
		return bits
	}

	if cal.MSV, err = stats.FitGumbelFixedLambda(filterBits(eng.MSVAll(mp, sample())), stats.Lambda); err != nil {
		return cal, fmt.Errorf("pipeline: MSV calibration: %w", err)
	}
	if cal.Vit, err = stats.FitGumbelFixedLambda(filterBits(eng.ViterbiAll(vp, sample())), stats.Lambda); err != nil {
		return cal, fmt.Errorf("pipeline: Viterbi calibration: %w", err)
	}
	if skipForward {
		return cal, nil
	}
	db := sample()
	bits := make([]float64, db.NumSeqs())
	// Samples 2j and 2j+1, both of length L, are one ForwardPair; an odd
	// last sample is paired with itself.
	eng.ForEach((len(bits)+1)/2, func(j int) {
		a, b := 2*j, min(2*j+1, len(bits)-1)
		fa, fb := refimpl.ForwardPair(p, db.Seqs[a].Residues, db.Seqs[b].Residues)
		bits[a], bits[b] = stats.BitsFromNats(fa), stats.BitsFromNats(fb)
	})
	if cal.Fwd, err = stats.FitExpTailFixedLambda(bits, stats.Lambda, opts.TailMass); err != nil {
		return cal, fmt.Errorf("pipeline: Forward calibration: %w", err)
	}
	return cal, nil
}

// msvPass reports whether an MSV filter result survives the threshold.
func (pl *Pipeline) msvPass(res cpu.FilterResult) bool {
	if res.Overflowed {
		return true
	}
	return pl.MSVGumbel.Surv(stats.BitsFromNats(res.Score)) <= pl.Opts.Thresholds.MSV
}

// vitPass reports whether a Viterbi filter result survives.
func (pl *Pipeline) vitPass(res cpu.FilterResult) bool {
	if res.Overflowed {
		return true
	}
	return pl.VitGumbel.Surv(stats.BitsFromNats(res.Score)) <= pl.Opts.Thresholds.Viterbi
}

// hostForward scores the Viterbi survivors (a view of them, in survivor
// order) with the host's Forward recurrence: one score in nats per
// survivor. It is the Forward stage of every engine. Sorted by length,
// neighbours are one refimpl.ForwardPair. ctx is checked before every
// pair — Forward is the pipeline's most expensive per-sequence work,
// so this is where a deadline lands mid-stage.
func (pl *Pipeline) hostForward(ctx context.Context, survivors *seq.Database) ([]float64, error) {
	seqs := survivors.Seqs
	order := make([]int, len(seqs))
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(x, y int) int { return len(seqs[x].Residues) - len(seqs[y].Residues) })
	nats := make([]float64, len(seqs))
	for j := 0; j < len(order); j += 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, b := order[j], order[min(j+1, len(order)-1)] // an odd last one pairs with itself
		nats[a], nats[b] = refimpl.ForwardPair(pl.Prof, seqs[a].Residues, seqs[b].Residues)
	}
	return nats, nil
}

// sortHits applies the reporting order: best E-value first, ties by
// database index.
func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].EValue != hits[j].EValue {
			return hits[i].EValue < hits[j].EValue
		}
		return hits[i].Index < hits[j].Index
	})
}

// alignmentCellCap bounds the alignment and posterior-decoding
// matrices: a hit whose L*M exceeds it is neither decoded nor aligned.
const alignmentCellCap = 10_000_000

// maybeDecode runs posterior decoding when any consumer (null2 or
// alignment annotation) needs it and the matrices fit the cap.
func (pl *Pipeline) maybeDecode(dsq []byte) *refimpl.Posterior {
	if !pl.Opts.UseNull2 && !pl.Opts.ComputeAlignments {
		return nil
	}
	if int64(len(dsq))*int64(pl.Prof.M) > alignmentCellCap {
		return nil
	}
	po, err := refimpl.PosteriorDecode(pl.Prof, dsq)
	if err != nil {
		return nil
	}
	return po
}

// annotate attaches domain alignments and posterior envelopes to a
// hit when alignment output is enabled and the matrices fit the cap.
func (pl *Pipeline) annotate(hit *Hit, dsq []byte, po *refimpl.Posterior) {
	if !pl.Opts.ComputeAlignments {
		return
	}
	if int64(len(dsq))*int64(pl.Prof.M) > alignmentCellCap {
		return
	}
	if tr, err := refimpl.ViterbiTrace(pl.Prof, dsq); err == nil {
		hit.Domains = tr.Alignments(pl.Prof, dsq, pl.consensus, pl.Prof.Abc)
	}
	if po != nil {
		hit.Envelopes = po.Envelopes(0.5)
	}
}

// bitsOf converts a filter result to a bit score for reporting
// (+Inf overflow becomes a large sentinel).
func bitsOf(res cpu.FilterResult) float64 {
	if res.Overflowed {
		return math.Inf(1)
	}
	return stats.BitsFromNats(res.Score)
}
