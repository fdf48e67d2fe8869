// Package seq provides digital protein sequences and sequence-database
// containers for the HMMER3 reproduction, including FASTA input/output.
package seq

import (
	"fmt"
	"math/rand"

	"hmmer3gpu/internal/alphabet"
)

// Sequence is a protein sequence in digital form.
type Sequence struct {
	// Name is the identifier from the FASTA header (up to first space).
	Name string
	// Desc is the remainder of the FASTA header, if any.
	Desc string
	// Residues holds digital residue codes (see package alphabet).
	Residues []byte
}

// Len returns the residue count.
func (s *Sequence) Len() int { return len(s.Residues) }

// Validate checks that all residue codes denote residues (no gap-like
// codes embedded in an unaligned sequence).
func (s *Sequence) Validate(abc *alphabet.Alphabet) error {
	for i, c := range s.Residues {
		if !abc.IsResidue(c) {
			return fmt.Errorf(nonResidueMsg, s.Name, i, c)
		}
	}
	return nil
}

const nonResidueMsg = "seq %s: position %d holds non-residue code %d"

// Packed returns the 5-bit packed representation of the sequence (the
// layout uploaded to the device).
func (s *Sequence) Packed() []uint32 { return alphabet.Pack(s.Residues) }

// Database is an in-memory sequence database.
type Database struct {
	// Name labels the database in reports (e.g. "swissprot-like").
	Name string
	// Seqs holds the sequences in database order.
	Seqs []*Sequence
}

// NewDatabase returns an empty named database.
func NewDatabase(name string) *Database {
	return &Database{Name: name}
}

// Add appends a sequence.
func (db *Database) Add(s *Sequence) { db.Seqs = append(db.Seqs, s) }

// NumSeqs returns the number of sequences.
func (db *Database) NumSeqs() int { return len(db.Seqs) }

// TotalResidues returns the summed residue count over all sequences
// (the paper's "collective residues", which equals the total number of
// dynamic-programming rows processed).
func (db *Database) TotalResidues() int64 {
	var n int64
	for _, s := range db.Seqs {
		n += int64(s.Len())
	}
	return n
}

// MaxLen returns the length of the longest sequence (0 if empty).
func (db *Database) MaxLen() int {
	m := 0
	for _, s := range db.Seqs {
		if s.Len() > m {
			m = s.Len()
		}
	}
	return m
}

// MeanLen returns the average sequence length (0 if empty).
func (db *Database) MeanLen() float64 {
	if len(db.Seqs) == 0 {
		return 0
	}
	return float64(db.TotalResidues()) / float64(len(db.Seqs))
}

// Slice returns a shallow sub-database covering Seqs[lo:hi], used to
// partition work across devices.
func (db *Database) Slice(lo, hi int) *Database {
	return &Database{Name: db.Name, Seqs: db.Seqs[lo:hi]}
}

// Partition splits the database into n shards with near-equal residue
// counts (not sequence counts), the balance criterion that matters for
// DP workloads. Shards preserve database order.
func (db *Database) Partition(n int) []*Database {
	if n <= 1 {
		return []*Database{db}
	}
	total := db.TotalResidues()
	target := total / int64(n)
	shards := make([]*Database, 0, n)
	start, acc := 0, int64(0)
	for i, s := range db.Seqs {
		acc += int64(s.Len())
		// Close a shard when it reaches its residue target, keeping
		// enough sequences for the remaining shards.
		if acc >= target && len(shards) < n-1 && len(db.Seqs)-i-1 >= n-len(shards)-1 {
			shards = append(shards, db.Slice(start, i+1))
			start, acc = i+1, 0
		}
	}
	shards = append(shards, db.Slice(start, len(db.Seqs)))
	return shards
}

// Shuffled returns a residue-shuffled copy of dsq (Fisher-Yates): the
// composition is preserved but the motif order is destroyed — the
// standard decoy construction for specificity (false-positive-rate)
// experiments.
func Shuffled(dsq []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), dsq...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
