package seq

import (
	"bufio"
	"fmt"
	"io"

	"hmmer3gpu/internal/alphabet"
)

// ReadFASTA parses FASTA-format sequences from r, digitising residues
// with abc. Header lines start with '>'; the token up to the first
// whitespace becomes Name and the remainder Desc. It is the stream
// scanner with a batch that never fills: one unnamed Database, and the
// same errors as StreamFASTA.
func ReadFASTA(r io.Reader, abc *alphabet.Alphabet) (*Database, error) {
	var db *Database
	err := streamFASTA(r, abc, "", func(int, int64) bool { return false }, func(batch *Database) error {
		db = batch
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// WriteFASTA writes the database in FASTA format, wrapping residue
// lines at 60 columns.
func WriteFASTA(w io.Writer, db *Database, abc *alphabet.Alphabet) error {
	bw := bufio.NewWriter(w)
	for _, s := range db.Seqs {
		if s.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", s.Name, s.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", s.Name)
		}
		text := abc.Textize(s.Residues)
		for len(text) > 60 {
			fmt.Fprintln(bw, text[:60])
			text = text[60:]
		}
		if len(text) > 0 {
			fmt.Fprintln(bw, text)
		}
	}
	return bw.Flush()
}
