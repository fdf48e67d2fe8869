package main

import (
	"bytes"
	"fmt"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/workload"
)

// sizes fixes every workload's shape. fullSizes is the benchmark of
// record; testSizes is the same code path at a size the tests can
// afford.
type sizes struct {
	// oneshot_cpu: one M-node query against a Swissprot-like database.
	oneshotM     int
	oneshotScale float64

	// device_cycles: a model-size sweep on Envnr-like databases sized to
	// deviceCells MSV cells each, with at least deviceMinSeqs sequences
	// so a large model still fills the device's resident warps.
	deviceMs      []int
	deviceCells   int64
	deviceMinSeqs int

	// stream_cluster: an Envnr-like FASTA stream cut into batches.
	streamM        int
	streamSeqs     int
	streamBatchRes int64

	// serve_mix: resident Swissprot-like database, several models, and
	// a schedule of requests per client per op.
	serveM         int
	serveModels    int
	serveSeqs      int
	serveBatchRes  int64
	serveTargetLen int
	serveRequests  int

	// probeSeqs is how many sequences the fast-mode workloads' modelled
	// probe scores: several times the device's resident warps, so that
	// its modelled time is an average over waves and not its longest
	// sequence's.
	probeSeqs int

	// ladder: sequences in the micro-benchmarks' database, calibration
	// sample count, and the kernel rungs' model sizes.
	ladderSeqs   int
	ladderCalibN int
	ladderMs     []int
}

var fullSizes = sizes{
	oneshotM:     100,
	oneshotScale: 0.006,

	// The Pfam histogram puts 84.5% of models at or below 400; 1056 sits
	// past the K40's shared-to-global switch.
	deviceMs:      []int{48, 100, 200, 400, 800, 1056},
	deviceCells:   30_000_000,
	deviceMinSeqs: 300,

	streamM:        100,
	streamSeqs:     8000,
	streamBatchRes: 4000,

	serveM:         100,
	serveModels:    4,
	serveSeqs:      455,
	serveBatchRes:  20_000,
	serveTargetLen: 350,
	serveRequests:  20,

	probeSeqs: 2000,

	ladderSeqs:   150,
	ladderCalibN: 40,
	ladderMs:     []int{48, 400, 1056},
}

var testSizes = sizes{
	oneshotM:     16,
	oneshotScale: 0.0003,

	deviceMs:      []int{48, 1056},
	deviceCells:   400_000,
	deviceMinSeqs: 40,

	streamM:        32,
	streamSeqs:     300,
	streamBatchRes: 4000,

	serveM:         32,
	serveModels:    2,
	serveSeqs:      60,
	serveBatchRes:  5000,
	serveTargetLen: 120,
	serveRequests:  8,

	probeSeqs: 100,

	ladderSeqs:   24,
	ladderCalibN: 8,
	ladderMs:     []int{48, 400, 1056},
}

// envnrMeanLen is the mean sequence length workload.EnvnrLike draws
// around; streamed runs configure the length model with it because a
// stream has no mean to read up front.
const envnrMeanLen = 197

// A run's inputs are functions of the seed alone. Each input takes its
// own stream from the seed so that adding one does not shift another.
const (
	seedOneshot = iota + 1
	seedDevice
	seedStream
	seedServe
	seedLadder
)

func subSeed(seed int64, which, i int) int64 {
	return seed*1_000_003 + int64(which)*10_007 + int64(i)
}

// query is one model in the forms the layers take it: the Plan7 and
// the bytes of its HMMER3 text file.
type query struct {
	h    *hmm.Plan7
	text []byte
}

func newQuery(name string, m int, abc *alphabet.Alphabet, seed int64) (*query, error) {
	h, err := workload.Model(name, m, abc, seed)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", name, err)
	}
	var buf bytes.Buffer
	if err := hmm.Write(&buf, h); err != nil {
		return nil, fmt.Errorf("write model %s: %w", name, err)
	}
	return &query{h: h, text: buf.Bytes()}, nil
}

// target is one database: parsed, and as FASTA bytes.
type target struct {
	db    *seq.Database
	fasta []byte
}

// newTarget generates spec's database and fits it to exactly
// spec.NumSeqs * spec.MeanLen residues. Every seed then searches the
// same number of MSV cells, so a run-to-run difference is the host's or
// the code's and not the length draw's.
func newTarget(spec workload.DBSpec, h *hmm.Plan7, abc *alphabet.Alphabet) (*target, error) {
	residues := int64(spec.NumSeqs) * int64(spec.MeanLen)
	spec.NumSeqs += spec.NumSeqs/8 + 8 // spare sequences for fitResidues to cut from
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		return nil, err
	}
	db = fitResidues(db, residues)
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, db, abc); err != nil {
		return nil, fmt.Errorf("write %s: %w", spec.Name, err)
	}
	return &target{db: db, fasta: buf.Bytes()}, nil
}

// fitResidues keeps the leading sequences of db (Generate shuffles, so
// they are a fair sample) up to exactly total residues, cutting the
// last one short. A database that is already smaller is returned whole.
func fitResidues(db *seq.Database, total int64) *seq.Database {
	out := seq.NewDatabase(db.Name)
	for _, s := range db.Seqs {
		if total <= 0 {
			break
		}
		if int64(s.Len()) > total {
			s = &seq.Sequence{Name: s.Name, Residues: s.Residues[:total]}
		}
		out.Add(s)
		total -= int64(s.Len())
	}
	return out
}

// swissprotSeqs returns the Swissprot-like spec with an exact sequence
// count (2% planted homologs, so all three stages run).
func swissprotSeqs(n int, seed int64) workload.DBSpec {
	spec := workload.SwissprotLike(1, seed)
	spec.NumSeqs = n
	return spec
}

// envnrSeqs returns the Envnr-like spec with an exact sequence count
// (0.2% homologs: MSV does nearly all the work).
func envnrSeqs(n int, seed int64) workload.DBSpec {
	spec := workload.EnvnrLike(1, seed)
	spec.NumSeqs = n
	return spec
}

// envnrCapped is envnrSeqs with lengths capped at twice the mean. One
// warp scores one sequence, so where a database has fewer sequences
// than the device has resident warps the modelled kernel time is its
// longest sequence's; the cap is reached by a few percent of the draws
// and keeps that time from being one outlier's.
func envnrCapped(n int, seed int64) workload.DBSpec {
	spec := envnrSeqs(n, seed)
	spec.MaxLen = 2 * spec.MeanLen
	return spec
}
