package seq

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadFASTA checks the parser never panics, that the whole-file
// and the two batched entry points agree on every input (the same
// error, or the same records in the same order), and that anything
// accepted survives a write/read round trip.
func FuzzReadFASTA(f *testing.F) {
	f.Add(">a desc\nACDEF\n>b\nWY\n")
	f.Add(">x\nacdef\nGHIKL\n")
	f.Add("")
	f.Add(">\n")
	f.Add(">a\nBJZOUX\n")
	f.Fuzz(func(t *testing.T, in string) {
		db, err := ReadFASTA(strings.NewReader(in), abc)
		budget := len(in)%97 + 1
		for _, stream := range []struct {
			name string
			run  func(fn func(*Database) error) error
		}{
			{"StreamFASTA", func(fn func(*Database) error) error {
				return StreamFASTA(strings.NewReader(in), abc, budget%11+1, fn)
			}},
			{"StreamFASTAResidues", func(fn func(*Database) error) error {
				return StreamFASTAResidues(strings.NewReader(in), abc, int64(budget), fn)
			}},
		} {
			var seqs []*Sequence
			serr := stream.run(func(b *Database) error {
				seqs = append(seqs, b.Seqs...)
				return nil
			})
			if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
				t.Fatalf("%s: error %v, ReadFASTA: %v", stream.name, serr, err)
			}
			if err == nil && !reflect.DeepEqual(seqs, db.Seqs) {
				t.Fatalf("%s: batches differ from ReadFASTA's records", stream.name)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, db, abc); err != nil {
			t.Fatalf("accepted input failed to serialise: %v", err)
		}
		back, err := ReadFASTA(&buf, abc)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumSeqs() != db.NumSeqs() || back.TotalResidues() != db.TotalResidues() {
			t.Fatalf("round trip changed content: %d/%d vs %d/%d",
				back.NumSeqs(), back.TotalResidues(), db.NumSeqs(), db.TotalResidues())
		}
	})
}
