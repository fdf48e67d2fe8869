package seq

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hmmer3gpu/internal/alphabet"
)

var abc = alphabet.New()

func mkSeq(t testing.TB, name, text string) *Sequence {
	t.Helper()
	dsq, err := abc.Digitize(nil, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return &Sequence{Name: name, Residues: dsq}
}

func TestDatabaseStats(t *testing.T) {
	db := NewDatabase("test")
	db.Add(mkSeq(t, "a", "ACDE"))
	db.Add(mkSeq(t, "b", "ACDEFGHIKL"))
	db.Add(mkSeq(t, "c", "AC"))
	if db.NumSeqs() != 3 {
		t.Errorf("NumSeqs = %d", db.NumSeqs())
	}
	if db.TotalResidues() != 16 {
		t.Errorf("TotalResidues = %d, want 16", db.TotalResidues())
	}
	if db.MaxLen() != 10 {
		t.Errorf("MaxLen = %d, want 10", db.MaxLen())
	}
	if got := db.MeanLen(); got != 16.0/3.0 {
		t.Errorf("MeanLen = %g", got)
	}
}

func TestEmptyDatabaseStats(t *testing.T) {
	db := NewDatabase("empty")
	if db.MeanLen() != 0 || db.MaxLen() != 0 {
		t.Error("empty database stats should all be zero")
	}
}

func TestValidateRejectsGapCodes(t *testing.T) {
	s := &Sequence{Name: "bad", Residues: []byte{0, 1, alphabet.CodeGap}}
	if err := s.Validate(abc); err == nil {
		t.Error("Validate accepted an embedded gap code")
	}
}

func TestPartitionBalancesResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase("p")
	for i := 0; i < 500; i++ {
		n := 20 + rng.Intn(400)
		res := make([]byte, n)
		for j := range res {
			res[j] = byte(rng.Intn(20))
		}
		db.Add(&Sequence{Name: "s", Residues: res})
	}
	for _, parts := range []int{1, 2, 3, 4, 8} {
		shards := db.Partition(parts)
		if len(shards) != parts {
			t.Fatalf("Partition(%d) returned %d shards", parts, len(shards))
		}
		var total int64
		count := 0
		for _, sh := range shards {
			total += sh.TotalResidues()
			count += sh.NumSeqs()
		}
		if total != db.TotalResidues() || count != db.NumSeqs() {
			t.Fatalf("Partition(%d) lost work: %d/%d residues, %d/%d seqs",
				parts, total, db.TotalResidues(), count, db.NumSeqs())
		}
		// Balance: each shard within 2x of ideal for this smooth workload.
		ideal := float64(db.TotalResidues()) / float64(parts)
		for i, sh := range shards {
			r := float64(sh.TotalResidues())
			if r < ideal*0.5 || r > ideal*2.0 {
				t.Errorf("Partition(%d) shard %d has %g residues, ideal %g", parts, i, r, ideal)
			}
		}
	}
}

func TestPartitionPreservesOrderProperty(t *testing.T) {
	f := func(lens []uint8, nParts uint8) bool {
		if len(lens) == 0 {
			return true
		}
		db := NewDatabase("q")
		for i, l := range lens {
			db.Add(&Sequence{Name: string(rune('a' + i%26)), Residues: make([]byte, int(l)+1)})
		}
		n := int(nParts)%4 + 1
		if n > db.NumSeqs() {
			n = db.NumSeqs()
		}
		shards := db.Partition(n)
		idx := 0
		for _, sh := range shards {
			for _, s := range sh.Seqs {
				if s != db.Seqs[idx] {
					return false
				}
				idx++
			}
		}
		return idx == db.NumSeqs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadFASTA(t *testing.T) {
	in := `>seq1 first test sequence
ACDEFGHIKL
MNPQRSTVWY
>seq2
ACACAC

>seq3 trailing
W
`
	db, err := ReadFASTA(strings.NewReader(in), abc)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSeqs() != 3 {
		t.Fatalf("parsed %d sequences, want 3", db.NumSeqs())
	}
	if db.Seqs[0].Name != "seq1" || db.Seqs[0].Desc != "first test sequence" {
		t.Errorf("header parse: name=%q desc=%q", db.Seqs[0].Name, db.Seqs[0].Desc)
	}
	if got := abc.Textize(db.Seqs[0].Residues); got != "ACDEFGHIKLMNPQRSTVWY" {
		t.Errorf("seq1 = %q", got)
	}
	if db.Seqs[1].Len() != 6 || db.Seqs[2].Len() != 1 {
		t.Errorf("lengths = %d, %d", db.Seqs[1].Len(), db.Seqs[2].Len())
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := map[string]string{
		"data before header": "ACDEF\n>x\nAC\n",
		"empty name":         ">\nAC\n",
		"bad residue":        ">x\nAC1DEF\n",
		"empty input":        "",
	}
	for name, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in), abc); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDatabase("rt")
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(200)
		res := make([]byte, n)
		for j := range res {
			res[j] = byte(rng.Intn(26)) // includes degenerates
		}
		s := &Sequence{Name: "rt" + string(rune('a'+i)), Residues: res}
		if i%2 == 0 {
			s.Desc = "description text"
		}
		db.Add(s)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, db, abc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf, abc)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeqs() != db.NumSeqs() {
		t.Fatalf("round trip count %d != %d", back.NumSeqs(), db.NumSeqs())
	}
	for i := range db.Seqs {
		a, b := db.Seqs[i], back.Seqs[i]
		if a.Name != b.Name || a.Desc != b.Desc || !bytes.Equal(a.Residues, b.Residues) {
			t.Errorf("seq %d mismatch after round trip", i)
		}
	}
}

func TestPackedAccessor(t *testing.T) {
	s := mkSeq(t, "p", "ACDEFGHIKLMNP")
	words := s.Packed()
	got := alphabet.Unpack(words, s.Len())
	if !bytes.Equal(got, s.Residues) {
		t.Error("Packed/Unpack mismatch")
	}
}

func TestSliceSharesBacking(t *testing.T) {
	db := NewDatabase("s")
	for i := 0; i < 5; i++ {
		db.Add(&Sequence{Name: string(rune('a' + i)), Residues: []byte{0}})
	}
	sub := db.Slice(1, 4)
	if sub.NumSeqs() != 3 || sub.Seqs[0] != db.Seqs[1] {
		t.Error("Slice should be a view over the same sequences")
	}
}

func TestStreamFASTAMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := NewDatabase("stream")
	for i := 0; i < 53; i++ {
		n := 1 + rng.Intn(120)
		res := make([]byte, n)
		for j := range res {
			res[j] = byte(rng.Intn(20))
		}
		db.Add(&Sequence{Name: "s" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Residues: res})
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, db, abc); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, batchSize := range []int{1, 7, 53, 100} {
		var got []*Sequence
		batches := 0
		err := StreamFASTA(strings.NewReader(text), abc, batchSize, func(b *Database) error {
			if b.NumSeqs() > batchSize {
				t.Fatalf("batch of %d exceeds size %d", b.NumSeqs(), batchSize)
			}
			got = append(got, b.Seqs...)
			batches++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != db.NumSeqs() {
			t.Fatalf("batchSize=%d: streamed %d seqs, want %d", batchSize, len(got), db.NumSeqs())
		}
		wantBatches := (db.NumSeqs() + batchSize - 1) / batchSize
		if batches != wantBatches {
			t.Errorf("batchSize=%d: %d batches, want %d", batchSize, batches, wantBatches)
		}
		for i := range got {
			if got[i].Name != db.Seqs[i].Name || !bytes.Equal(got[i].Residues, db.Seqs[i].Residues) {
				t.Fatalf("batchSize=%d: sequence %d differs", batchSize, i)
			}
		}
	}
}

func TestStreamFASTAErrors(t *testing.T) {
	if err := StreamFASTA(strings.NewReader(">a\nAC\n"), abc, 0, func(*Database) error { return nil }); err == nil {
		t.Error("batch size 0 accepted")
	}
	if err := StreamFASTA(strings.NewReader(""), abc, 4, func(*Database) error { return nil }); err == nil {
		t.Error("empty stream accepted")
	}
	sentinel := StreamFASTA(strings.NewReader(">a\nAC\n>b\nDE\n"), abc, 1, func(b *Database) error {
		return bytes.ErrTooLarge // any sentinel error
	})
	if sentinel == nil {
		t.Error("callback error not propagated")
	}
}

func TestStreamFASTAResiduesBalancesBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := NewDatabase("resstream")
	for i := 0; i < 80; i++ {
		n := 1 + rng.Intn(200) // heavy length skew
		res := make([]byte, n)
		for j := range res {
			res[j] = byte(rng.Intn(20))
		}
		db.Add(&Sequence{Name: fmt.Sprintf("r%03d", i), Residues: res})
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, db, abc); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for _, budget := range []int64{1, 150, 1000, db.TotalResidues() * 2} {
		var got []*Sequence
		err := StreamFASTAResidues(strings.NewReader(text), abc, budget, func(b *Database) error {
			got = append(got, b.Seqs...)
			// A batch may exceed the budget only by its last sequence.
			if b.NumSeqs() > 1 {
				last := int64(b.Seqs[b.NumSeqs()-1].Len())
				if b.TotalResidues()-last >= budget {
					t.Fatalf("budget=%d: batch holds %d residues before its last sequence",
						budget, b.TotalResidues()-last)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != db.NumSeqs() {
			t.Fatalf("budget=%d: streamed %d seqs, want %d", budget, len(got), db.NumSeqs())
		}
		for i := range got {
			if got[i].Name != db.Seqs[i].Name || !bytes.Equal(got[i].Residues, db.Seqs[i].Residues) {
				t.Fatalf("budget=%d: sequence %d differs", budget, i)
			}
		}
	}
	// Every batch but the last must meet the budget.
	budget := int64(300)
	var sizes []int64
	err := StreamFASTAResidues(strings.NewReader(text), abc, budget, func(b *Database) error {
		sizes = append(sizes, b.TotalResidues())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes[:len(sizes)-1] {
		if n < budget {
			t.Errorf("batch %d holds %d residues, budget %d", i, n, budget)
		}
	}
	if err := StreamFASTAResidues(strings.NewReader(text), abc, 0, func(*Database) error { return nil }); err == nil {
		t.Error("residue budget 0 accepted")
	}
}

func TestShuffledPreservesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := make([]byte, 500)
	for i := range orig {
		orig[i] = byte(rng.Intn(20))
	}
	sh := Shuffled(orig, rng)
	if len(sh) != len(orig) {
		t.Fatal("length changed")
	}
	var a, b [20]int
	for i := range orig {
		a[orig[i]]++
		b[sh[i]]++
	}
	if a != b {
		t.Error("composition changed")
	}
	if bytes.Equal(sh, orig) {
		t.Error("shuffle returned the identical order (astronomically unlikely)")
	}
	// The input must not be mutated.
	var c [20]int
	for _, r := range orig {
		c[r]++
	}
	if c != a {
		t.Error("input mutated")
	}
}

func TestPartitionMoreShardsThanSequences(t *testing.T) {
	db := NewDatabase("tiny")
	db.Add(&Sequence{Name: "a", Residues: make([]byte, 10)})
	db.Add(&Sequence{Name: "b", Residues: make([]byte, 10)})
	shards := db.Partition(5)
	// Partition never splits a sequence, so it may return fewer shards
	// than requested; work must still be complete.
	total := 0
	for _, sh := range shards {
		total += sh.NumSeqs()
	}
	if total != 2 {
		t.Fatalf("lost sequences: %d", total)
	}
	if len(shards) > 5 {
		t.Fatalf("returned %d shards", len(shards))
	}
}
