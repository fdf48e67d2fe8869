// Package workload generates the synthetic stand-ins for the paper's
// evaluation inputs: Swissprot-like and Env_nr-like sequence databases
// (matched in count/length statistics, scaled to laptop size) and
// Pfam-like query models across the paper's size sweep. Homologous
// sequences are planted by sampling the query model, so the stage
// pass-rates — the quantity the pipeline time split depends on — are
// controllable and realistic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
)

// PaperModelSizes is the model-size sweep of Figures 9-11.
var PaperModelSizes = []int{48, 100, 200, 400, 800, 1002, 1528, 2405}

// DBSpec describes a synthetic database.
type DBSpec struct {
	Name string
	// NumSeqs is the sequence count.
	NumSeqs int
	// MeanLen is the mean sequence length; lengths follow a lognormal
	// distribution with shape LogSigma, clamped to [MinLen, MaxLen].
	MeanLen  int
	LogSigma float64
	MinLen   int
	MaxLen   int
	// HomologFrac is the fraction of sequences planted as homologs of
	// the query model (sampled from it, with random flanks).
	HomologFrac float64
	// Seed fixes the generator.
	Seed int64
}

// Reference full-size statistics from the paper (§IV):
// Swissprot: 459,565 sequences, 171,731,281 residues (mean ~374);
// Env_nr: 6,549,721 sequences, 1,290,247,663 residues (mean ~197).
const (
	swissprotSeqs    = 459565
	swissprotMeanLen = 374
	envnrSeqs        = 6549721
	envnrMeanLen     = 197
)

// SwissprotLike returns a Swissprot-shaped spec scaled down by the
// given factor (scale=1 reproduces the full database size; benchmarks
// use small scales and the performance model extrapolates linearly).
// Swissprot is curated protein space, so a query family typically has
// genuine members in it — the planted homolog fraction is high, which
// lowers the MSV:Viterbi time ratio (the paper's §V explanation of why
// Swissprot speeds up less than Env_nr).
func SwissprotLike(scale float64, seed int64) DBSpec {
	return DBSpec{
		Name:        "swissprot-like",
		NumSeqs:     scaled(swissprotSeqs, scale),
		MeanLen:     swissprotMeanLen,
		LogSigma:    0.65,
		MinLen:      25,
		MaxLen:      5000,
		HomologFrac: 0.02,
		Seed:        seed,
	}
}

// EnvnrLike returns an Env_nr-shaped spec: many short environmental
// fragments with little homology to any given query.
func EnvnrLike(scale float64, seed int64) DBSpec {
	return DBSpec{
		Name:        "envnr-like",
		NumSeqs:     scaled(envnrSeqs, scale),
		MeanLen:     envnrMeanLen,
		LogSigma:    0.45,
		MinLen:      20,
		MaxLen:      2000,
		HomologFrac: 0.002,
		Seed:        seed,
	}
}

func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Generate builds the database. model may be nil when HomologFrac is
// zero; otherwise planted sequences are sampled from it.
func Generate(spec DBSpec, model *hmm.Plan7, abc *alphabet.Alphabet) (*seq.Database, error) {
	if spec.NumSeqs < 1 {
		return nil, fmt.Errorf("workload: %s: no sequences requested", spec.Name)
	}
	if spec.HomologFrac > 0 && model == nil {
		return nil, fmt.Errorf("workload: %s: homologs requested but no model given", spec.Name)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	db := seq.NewDatabase(spec.Name)
	bg := abc.Backgrounds()

	// Lognormal length parameters: mean = exp(mu + sigma^2/2).
	sigma := spec.LogSigma
	mu := math.Log(float64(spec.MeanLen)) - sigma*sigma/2

	drawLen := func() int {
		l := int(math.Exp(mu + sigma*rng.NormFloat64()))
		if l < spec.MinLen {
			l = spec.MinLen
		}
		if l > spec.MaxLen {
			l = spec.MaxLen
		}
		return l
	}
	randomResidues := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = stats.DrawResidue(rng, bg)
		}
		return out
	}

	nHomologs := int(math.Round(spec.HomologFrac * float64(spec.NumSeqs)))
	for i := 0; i < spec.NumSeqs; i++ {
		var res []byte
		if i < nHomologs {
			// A homolog: model sample embedded in random flanks, so the
			// hit is local within a longer target.
			core := model.SampleSequence(rng)
			flank := drawLen() / 4
			res = append(randomResidues(rng.Intn(flank+1)), core...)
			res = append(res, randomResidues(rng.Intn(flank+1))...)
		} else {
			res = randomResidues(drawLen())
		}
		db.Add(&seq.Sequence{
			Name:     fmt.Sprintf("%s_%06d", spec.Name, i),
			Residues: res,
		})
	}
	// Shuffle so homologs are spread across device shards.
	rng.Shuffle(len(db.Seqs), func(a, b int) {
		db.Seqs[a], db.Seqs[b] = db.Seqs[b], db.Seqs[a]
	})
	return db, nil
}

// Model builds a Pfam-like random query model of the given size.
func Model(name string, m int, abc *alphabet.Alphabet, seed int64) (*hmm.Plan7, error) {
	return hmm.Random(name, m, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(seed)))
}

// PfamBucket is one row of the paper's Pfam 27.0 model-size breakdown.
type PfamBucket struct {
	Label    string
	Fraction float64
}

// PfamSizeDistribution returns the paper's §IV statistics for the
// 34,831 families of Pfam 27.0 (pfamA + pfamB): 84.5% of models have
// size <= 400, 14.4% fall in 400..1000, and 1.1% are >= 1000 — the
// basis of the claim that the shared-memory configuration serves ~99%
// of real use cases.
func PfamSizeDistribution() (total int, buckets []PfamBucket) {
	return 34831, []PfamBucket{
		{Label: "size <= 400", Fraction: 0.845},
		{Label: "400 < size <= 1000", Fraction: 0.144},
		{Label: "size > 1000", Fraction: 0.011},
	}
}

// Mutate returns a copy of dsq with each residue independently
// replaced by a background draw with probability rate — the knob for
// sensitivity experiments (recall of increasingly diverged homologs).
func Mutate(dsq []byte, rate float64, abc *alphabet.Alphabet, rng *rand.Rand) []byte {
	out := make([]byte, len(dsq))
	bg := abc.Backgrounds()
	for i, r := range dsq {
		if rng.Float64() < rate {
			out[i] = stats.DrawResidue(rng, bg)
		} else {
			out[i] = r
		}
	}
	return out
}
