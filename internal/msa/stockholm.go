package msa

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"hmmer3gpu/internal/alphabet"
)

// Stockholm format support — Pfam's native alignment format. The
// reader handles the single-block and interleaved (multi-block) forms,
// per-file and per-sequence annotations (#=GF/#=GS/#=GR/#=GC lines are
// recognised and skipped), and the mandatory "//" terminator.

// ReadStockholm parses one Stockholm alignment.
func ReadStockholm(r io.Reader, abc *alphabet.Alphabet) (*MSA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	msa := &MSA{}
	rows := map[string]int{} // name -> row index (for interleaved blocks)
	line := 0
	sawHeader := false
	sawEnd := false
	var id string

	for sc.Scan() {
		line++
		text := strings.TrimRight(sc.Text(), " \t\r")
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# STOCKHOLM"):
			sawHeader = true
			continue
		case text == "//":
			sawEnd = true
			goto done
		case strings.HasPrefix(text, "#=GF ID"):
			if f := strings.Fields(text); len(f) >= 3 {
				id = f[2]
			}
			continue
		case strings.HasPrefix(text, "#"):
			// Other annotation (GF/GS/GR/GC) — recognised, not needed.
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("stockholm: line %d: missing '# STOCKHOLM' header", line)
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("stockholm: line %d: expected 'name sequence', got %d fields", line, len(fields))
		}
		name, data := fields[0], fields[1]
		idx, ok := rows[name]
		if !ok {
			idx = len(msa.Rows)
			rows[name] = idx
			msa.Names = append(msa.Names, name)
			msa.Rows = append(msa.Rows, nil)
		}
		var err error
		if msa.Rows[idx], err = abc.Digitize(msa.Rows[idx], []byte(data)); err != nil {
			return nil, fmt.Errorf("stockholm: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
done:
	if !sawHeader {
		return nil, fmt.Errorf("stockholm: missing '# STOCKHOLM' header")
	}
	if !sawEnd {
		return nil, fmt.Errorf("stockholm: missing // terminator")
	}
	if len(msa.Rows) == 0 {
		return nil, fmt.Errorf("stockholm: no sequences found")
	}
	msa.Name = id
	msa.Cols = len(msa.Rows[0])
	for i, row := range msa.Rows {
		if len(row) != msa.Cols {
			return nil, fmt.Errorf("stockholm: row %q has %d columns, want %d",
				msa.Names[i], len(row), msa.Cols)
		}
	}
	return msa, nil
}
