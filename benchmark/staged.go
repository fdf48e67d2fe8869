package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hmmer3gpu/internal/cpu"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/refimpl"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
)

// The traced pass drives a search stage by stage through each layer's
// exported functions, so that every call into a layer can carry a span.
// What pipeline.New and pipeline.Run* do between those calls —
// thresholds, survivor lists, hit assembly — is repeated here, and the
// correctness gate holds it to the same bytes as the public call.

// layerOther is the layer of an op's root span: time inside the op but
// inside no layer call, the residual of the time budget.
const layerOther = "other"

// calibration is the three fitted score distributions of one query.
type calibration struct {
	msv, vit stats.Gumbel
	fwd      stats.Exponential
}

// calibrate fits the distributions with the scorers pipeline.New uses,
// through stats.CalibrateGumbel and stats.CalibrateExponential, and
// returns how long each fit took. Every scorer call is a child span of
// its fit, so the stats layer's self time is sampling and fitting only.
func calibrate(p *profile.Profile, mp *profile.MSVProfile, vp *profile.VitProfile,
	opts stats.CalibrateOptions, skipForward bool, rec *recorder, op, parent int) (calibration, [3]time.Duration, error) {

	var cal calibration
	var took [3]time.Duration
	var err error
	bg := p.Abc.Backgrounds()
	opts.L = p.L

	scored := func(layer, name string, fit int, score func(dsq []byte) float64) stats.Scorer {
		return func(dsq []byte) float64 {
			s := rec.start(op, fit, layer, name)
			defer rec.end(s)
			return stats.BitsFromNats(score(dsq))
		}
	}

	t0 := time.Now()
	fit := rec.start(op, parent, "stats", "stats.CalibrateGumbel msv")
	msvEng := cpu.NewMSVEngine(mp)
	cal.msv, err = stats.CalibrateGumbel(scored("cpu", "cpu.MSVEngine.Filter", fit,
		func(dsq []byte) float64 { return msvEng.Filter(dsq).Score }), bg, opts)
	rec.end(fit)
	took[0] = time.Since(t0)
	if err != nil {
		return cal, took, fmt.Errorf("MSV calibration: %w", err)
	}

	opts.Seed++
	t0 = time.Now()
	fit = rec.start(op, parent, "stats", "stats.CalibrateGumbel viterbi")
	vitEng := cpu.NewVitEngine(vp)
	cal.vit, err = stats.CalibrateGumbel(scored("cpu", "cpu.VitEngine.Filter", fit,
		func(dsq []byte) float64 { return vitEng.Filter(dsq).Score }), bg, opts)
	rec.end(fit)
	took[1] = time.Since(t0)
	if err != nil {
		return cal, took, fmt.Errorf("Viterbi calibration: %w", err)
	}
	if skipForward {
		return cal, took, nil
	}

	opts.Seed++
	t0 = time.Now()
	fit = rec.start(op, parent, "stats", "stats.CalibrateExponential forward")
	cal.fwd, err = stats.CalibrateExponential(scored("refimpl", "refimpl.Forward", fit,
		func(dsq []byte) float64 { return refimpl.Forward(p, dsq) }), bg, opts)
	rec.end(fit)
	took[2] = time.Since(t0)
	if err != nil {
		return cal, took, fmt.Errorf("Forward calibration: %w", err)
	}
	return cal, took, nil
}

func bitsOf(r cpu.FilterResult) float64 {
	if r.Overflowed {
		return math.Inf(1)
	}
	return stats.BitsFromNats(r.Score)
}

// survivors applies a stage threshold: results[j] belongs to database
// index ids[j] (or j when ids is nil). An overflowed score passes.
func survivors(results []cpu.FilterResult, ids []int, g stats.Gumbel, threshold float64) ([]int, map[int]float64) {
	var out []int
	bits := make(map[int]float64)
	for j, r := range results {
		if !(r.Overflowed || g.Surv(stats.BitsFromNats(r.Score)) <= threshold) {
			continue
		}
		idx := j
		if ids != nil {
			idx = ids[j]
		}
		out = append(out, idx)
		bits[idx] = bitsOf(r)
	}
	return out, bits
}

func subDatabase(db *seq.Database, idx []int) *seq.Database {
	sub := seq.NewDatabase(db.Name + "-survivors")
	for _, i := range idx {
		sub.Add(db.Seqs[i])
	}
	return sub
}

// filterStats fills in what a filter stage reports about itself.
func filterStats(in *seq.Database, out, m int) pipeline.StageStats {
	return pipeline.StageStats{In: in.NumSeqs(), Out: out, Cells: in.TotalResidues() * int64(m)}
}

// forwardStage rescores the Viterbi survivors with refimpl.Forward and
// assembles the hit list, best E-value first.
func forwardStage(p *profile.Profile, db *seq.Database, vitSurvivors []int, msvBits, vitBits map[int]float64,
	fwd stats.Exponential, threshold float64, result *pipeline.Result, rec *recorder, op, parent int) {

	result.Forward.In = len(vitSurvivors)
	for _, idx := range vitSurvivors {
		dsq := db.Seqs[idx].Residues
		result.Forward.Cells += int64(len(dsq)) * int64(p.M)
		s := rec.start(op, parent, "refimpl", "refimpl.Forward")
		fwdBits := stats.BitsFromNats(refimpl.Forward(p, dsq))
		rec.end(s)
		pv := fwd.Surv(fwdBits)
		if pv > threshold {
			continue
		}
		result.Hits = append(result.Hits, pipeline.Hit{
			Index:   idx,
			Name:    db.Seqs[idx].Name,
			MSVBits: msvBits[idx],
			VitBits: vitBits[idx],
			FwdBits: fwdBits,
			PValue:  pv,
			EValue:  stats.EValue(pv, db.NumSeqs()),
		})
	}
	result.Forward.Out = len(result.Hits)
	sort.Slice(result.Hits, func(i, j int) bool {
		if result.Hits[i].EValue != result.Hits[j].EValue {
			return result.Hits[i].EValue < result.Hits[j].EValue
		}
		return result.Hits[i].Index < result.Hits[j].Index
	})
}

// opBudget is the time budget of a traced op: seconds per row, the
// op's wall, and the share of that wall the rows do not place.
type opBudget struct {
	layers  map[string]float64
	wall    float64
	gapFrac float64
}

// budget turns the traced ops' spans into the time budget of a serial
// op: per layer, the median over ops of that layer's self time, and
// the median share of an op's wall that fell in no layer call.
func budget(spans []span, ops []int) opBudget {
	perLayer := make(map[string][]float64)
	var walls, gaps []float64
	for _, op := range ops {
		self := layerSelf(spans, op)
		opWall := rootWall(spans, op)
		if opWall <= 0 {
			continue
		}
		walls = append(walls, opWall.Seconds())
		gaps = append(gaps, self[layerOther].Seconds()/opWall.Seconds())
		for layer, d := range self {
			perLayer[layer] = append(perLayer[layer], d.Seconds())
		}
	}
	b := opBudget{layers: make(map[string]float64, len(perLayer)), wall: median(walls), gapFrac: median(gaps)}
	for layer, vals := range perLayer {
		b.layers[layer] = median(vals)
	}
	return b
}

// rootWall is the duration of the op's root span.
func rootWall(spans []span, op int) time.Duration {
	for _, s := range spans {
		if s.Op == op && s.Parent == noSpan {
			return s.End - s.Start
		}
	}
	return 0
}
