package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"hmmer3gpu/internal/alphabet"
)

// StreamFASTA parses FASTA input in batches of up to batchSize
// sequences, invoking fn for each batch — the memory-bounded path for
// databases at the paper's Env_nr scale (6.5M sequences) that should
// not be held in RAM at once. fn receives batches in file order; a
// non-nil error from fn aborts the stream.
func StreamFASTA(r io.Reader, abc *alphabet.Alphabet, batchSize int, fn func(batch *Database) error) error {
	if batchSize < 1 {
		return fmt.Errorf("fasta: batch size %d < 1", batchSize)
	}
	return streamFASTA(r, abc, "stream", func(seqs int, residues int64) bool {
		return seqs >= batchSize
	}, fn)
}

// StreamFASTAResidues parses FASTA input in residue-balanced batches:
// a batch closes once it holds at least residueBudget residues (always
// after a whole sequence, so a batch can exceed the budget by at most
// one sequence). Residue-balanced batches equalise DP work per batch —
// the balance criterion that matters when batches are scheduled across
// devices — whereas sequence-count batches can differ widely in cost
// under length skew. fn receives batches in file order.
func StreamFASTAResidues(r io.Reader, abc *alphabet.Alphabet, residueBudget int64, fn func(batch *Database) error) error {
	if residueBudget < 1 {
		return fmt.Errorf("fasta: residue budget %d < 1", residueBudget)
	}
	return streamFASTA(r, abc, "stream", func(seqs int, residues int64) bool {
		return residues >= residueBudget
	}, fn)
}

// streamFASTA is the one FASTA line scanner, behind all three batching
// policies (a sequence count, a residue budget, and ReadFASTA's batch
// that never fills): full(seqs, residues) is consulted after each
// complete sequence and closes the current batch, named batchName,
// when it returns true. Lines are read as bytes from the scanner's
// buffer; a header is copied into one string, and residues are
// digitised into one reused buffer, checked for gap-like codes line by
// line, and copied into the record once at its exact length.
func streamFASTA(r io.Reader, abc *alphabet.Alphabet, batchName string, full func(seqs int, residues int64) bool, fn func(batch *Database) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	batch := NewDatabase(batchName)
	var batchResidues int64
	var cur *Sequence
	res, bad := []byte(nil), -1 // cur's residues, and its first gap-like one or -1
	line := 0
	total := 0

	emit := func() error {
		if batch.NumSeqs() == 0 {
			return nil
		}
		if err := fn(batch); err != nil {
			return err
		}
		batch = NewDatabase(batchName)
		batchResidues = 0
		return nil
	}
	flush := func() error {
		if cur == nil {
			return nil
		}
		if bad >= 0 {
			return parseErrf(line, cur.Name, nonResidueMsg, cur.Name, bad, res[bad])
		}
		if len(res) > 0 {
			cur.Residues = append(make([]byte, 0, len(res)), res...)
		}
		batch.Add(cur)
		batchResidues += int64(cur.Len())
		total++
		cur = nil
		if full(batch.NumSeqs(), batchResidues) {
			return emit()
		}
		return nil
	}

	for sc.Scan() {
		line++
		text := bytes.TrimRight(sc.Bytes(), " \t\r")
		if len(text) == 0 {
			continue
		}
		if text[0] == '>' {
			if err := flush(); err != nil {
				return err
			}
			header := string(bytes.TrimSpace(text[1:]))
			name, desc := header, ""
			if i := strings.IndexAny(header, " \t"); i >= 0 {
				name, desc = header[:i], strings.TrimSpace(header[i+1:])
			}
			if name == "" {
				return parseErrf(line, "", "empty sequence name")
			}
			cur, res, bad = &Sequence{Name: name, Desc: desc}, res[:0], -1
			continue
		}
		if cur == nil {
			return parseErrf(line, "", "sequence data before first header")
		}
		var err error
		from := len(res)
		if res, err = abc.Digitize(res, text); err != nil {
			return parseErrf(line, cur.Name, "%v", err)
		}
		for i := from; bad < 0 && i < len(res); i++ {
			if !abc.IsResidue(res[i]) {
				bad = i
			}
		}
		if MaxRecordLen > 0 && len(res) > MaxRecordLen {
			return parseErrf(line, cur.Name, "sequence exceeds MaxRecordLen (%d residues)", MaxRecordLen)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fasta: %w", err)
	}
	if err := flush(); err != nil {
		return err
	}
	if err := emit(); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("fasta: no sequences found")
	}
	return nil
}
