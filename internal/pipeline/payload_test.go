package pipeline

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/stats"
	"hmmer3gpu/internal/workload"
)

// The result payload's bytes are pinned: workers ship it to the
// coordinator and the journal stores it, so builds must agree on it.
// Scores include both infinities and a NaN, which must cross bit-exact.
func TestResultPayloadPinned(t *testing.T) {
	// The second hit's index is past 32 bits, to pin that Index crosses
	// as 64: a build whose int is 32 bits cannot hold it.
	big := int64(1) << 40
	if int64(math.MaxInt) < big {
		t.Skip("the pinned payload holds a hit index past a 32-bit int")
	}
	res := &Result{
		MSV:     StageStats{In: 1000, Out: 21, Cells: 1 << 33, Wall: 1500},
		Viterbi: StageStats{In: 21, Out: 2, Cells: 123456, Wall: 2},
		Forward: StageStats{In: 2, Out: 2, Cells: 654321, Wall: 0},
		Hits: []Hit{
			{Index: 7, Name: "sp|P1|ΑΒΓ_human", MSVBits: math.Inf(1), VitBits: 31.25, FwdBits: 29.5, PValue: 1e-12, EValue: 3e-9},
			{Index: int(big), Name: "", MSVBits: math.Inf(-1), VitBits: math.NaN(), FwdBits: -0.5, PValue: 1, EValue: math.MaxFloat64},
		},
	}
	const want = "e80300000000000015000000000000000000000002000000dc050000000000001500000000000000020000000000000040e2010000000000020000000000000002000000000000000200000000000000f1fb090000000000000000000000000002000000000000000700000000000000120000000000000073707c50317cce91ce92ce935f68756d616e000000000000f07f0000000000403f400000000000803d4011ea2d819997713ddf413adc11c5293e00000000000100000000000000000000000000000000f0ff010000000000f87f000000000000e0bf000000000000f03fffffffffffffef7f"
	p := EncodeResultPayload(res)
	if got := hex.EncodeToString(p); got != want {
		t.Fatalf("payload encodes to\n%s\nwant\n%s", got, want)
	}
	golden, _ := hex.DecodeString(want)
	back, err := DecodeResultPayload(golden)
	if err != nil {
		t.Fatal(err)
	}
	if again := EncodeResultPayload(back); !bytes.Equal(again, golden) {
		t.Fatalf("golden payload decodes and re-encodes to %x", again)
	}
}

// Fingerprint's digest is pinned for a fixed pipeline: journals and
// worker handshakes of one build are accepted by the next only while
// it holds.
func TestFingerprintPinned(t *testing.T) {
	pl := &Pipeline{
		Prof:      &profile.Profile{Name: "pin-model", M: 120, L: 350},
		MSVGumbel: stats.Gumbel{Mu: -9.25, Lambda: 0.693147},
		VitGumbel: stats.Gumbel{Mu: -10.5, Lambda: 0.69},
		FwdExp:    stats.Exponential{Tau: -4.75, Lambda: 0.7},
		Opts:      Options{Thresholds: DefaultThresholds(), UseNull2: true},
	}
	const want = "d74da8f99d16f09e72aec1aff87185570ae81b676e3ce0798e68082550523e26"
	fp := pl.Fingerprint(StreamConfig{BatchResidues: 9000})
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Fatalf("fingerprint encodes to\n%s\nwant\n%s", got, want)
	}
}

// DecodeResultPayload reads bytes from remote workers and from journal
// records: it must never panic, and every payload it accepts must
// re-encode to the same bytes. Seeds are real CPU results, one of them
// empty.
func FuzzDecodeResultPayload(f *testing.F) {
	h, err := workload.Model("fuzz", 48, abc, 5)
	if err != nil {
		f.Fatal(err)
	}
	spec := workload.SwissprotLike(0.0005, 6)
	spec.HomologFrac = 0.05
	db, err := workload.Generate(spec, h, abc)
	if err != nil {
		f.Fatal(err)
	}
	pl, err := New(h, int(db.MeanLen()), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*seq.Database{db, seq.NewDatabase("empty")} {
		res, err := pl.RunCPU(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeResultPayload(res))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		res, err := DecodeResultPayload(p)
		if err != nil {
			return
		}
		if again := EncodeResultPayload(res); !bytes.Equal(again, p) {
			t.Fatalf("accepted %x, re-encoded %x", p, again)
		}
	})
}
