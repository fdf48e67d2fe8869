package msa

import (
	"strings"
	"testing"
)

// FuzzReadStockholm checks the Stockholm parser never panics and that
// accepted alignments are rectangular.
func FuzzReadStockholm(f *testing.F) {
	f.Add(stockholmSample)
	f.Add("# STOCKHOLM 1.0\nrow ACDE\n//\n")
	f.Add("# STOCKHOLM 1.0\n//\n")
	f.Add("")
	f.Add("#=GF ID x\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		m, err := ReadStockholm(strings.NewReader(in), abc)
		if err != nil {
			return
		}
		if m.NumSeqs() == 0 {
			t.Fatal("accepted empty alignment")
		}
		for _, row := range m.Rows {
			if len(row) != m.Cols {
				t.Fatal("accepted ragged alignment")
			}
		}
	})
}

// FuzzRead checks the aligned-FASTA parser never panics (a header with
// no name is an error, not an index out of range) and that accepted
// alignments are rectangular.
func FuzzRead(f *testing.F) {
	f.Add(">a\nAC-D\n>b\nA.CD\n")
	f.Add(">\nAC\n")
	f.Add("> \nAC\n")
	f.Add("")
	f.Add("AC\n>a\nAC\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		m, err := Read(strings.NewReader(in), abc)
		if err != nil {
			return
		}
		if m.NumSeqs() == 0 || m.Cols == 0 {
			t.Fatal("accepted empty alignment")
		}
		for _, row := range m.Rows {
			if len(row) != m.Cols {
				t.Fatal("accepted ragged alignment")
			}
		}
	})
}
