package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"hmmer3gpu/internal/profile"
)

// benchFilter times filter on a 250-residue background target against
// models of 100 nodes (the benchmark of record's oneshot_cpu size) and
// 400 nodes; MB/s reads as Mcell/s. The target's seed must differ from
// the model's: hmm.Random and randomSeq both invert the background CDF
// on rng.Float64(), so one seed for both makes the "random" target the
// model's own consensus — a perfect homolog, whose MSV score overflows
// within a dozen rows and whose Viterbi row is the lazy-F worst case.
// A timed input that overflows is measuring the early exit, so it is
// fatal.
func benchFilter(b *testing.B, filter func(*profile.MSVProfile, *profile.VitProfile) func([]byte) FilterResult) {
	const L = 250
	for _, m := range []int{48, 100, 200, 400, 1000} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			_, mp, vp := buildProfiles(b, m, L, int64(m))
			dsq := randomSeq(rand.New(rand.NewSource(int64(m)+1000)), L)
			run := filter(mp, vp)
			if res := run(dsq); res.Overflowed {
				b.Fatalf("M=%d: the timed target overflows the filter: %+v", m, res)
			}
			b.SetBytes(int64(m * L))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(dsq)
			}
		})
	}
}

func BenchmarkStripedMSVFilter(b *testing.B) {
	benchFilter(b, func(mp *profile.MSVProfile, _ *profile.VitProfile) func([]byte) FilterResult {
		return NewMSVEngine(mp).Filter
	})
}

func BenchmarkStripedVitFilter(b *testing.B) {
	benchFilter(b, func(_ *profile.MSVProfile, vp *profile.VitProfile) func([]byte) FilterResult {
		return NewVitEngine(vp).Filter
	})
}

func BenchmarkScalarMSVFilter(b *testing.B) {
	benchFilter(b, func(mp *profile.MSVProfile, _ *profile.VitProfile) func([]byte) FilterResult {
		return func(dsq []byte) FilterResult { return MSVFilterScalar(mp, dsq) }
	})
}

func BenchmarkScalarVitFilter(b *testing.B) {
	benchFilter(b, func(_ *profile.MSVProfile, vp *profile.VitProfile) func([]byte) FilterResult {
		return func(dsq []byte) FilterResult { return VitFilterScalar(vp, dsq) }
	})
}
