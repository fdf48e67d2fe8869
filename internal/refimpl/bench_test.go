package refimpl

import (
	"math/rand"
	"testing"

	"hmmer3gpu/internal/profile"
)

func BenchmarkGenericViterbi(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := testProfile(b, 100, 1)
	p.SetLength(200)
	dsq := randomSeq(rng, 200)
	b.SetBytes(int64(100 * 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Viterbi(p, dsq)
	}
}

func benchmarkForward(b *testing.B, forward func(*profile.Profile, []byte) float64) {
	rng := rand.New(rand.NewSource(2))
	p := testProfile(b, 100, 2)
	p.SetLength(200)
	dsq := randomSeq(rng, 200)
	b.SetBytes(int64(100 * 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward(p, dsq)
	}
}

func BenchmarkGenericForward(b *testing.B) { benchmarkForward(b, Forward) }

// BenchmarkForwardPair is BenchmarkGenericForward's input with a second
// target of the same length beside it; MB/s counts both lanes' cells,
// so it reads against BenchmarkGenericForward's directly.
func BenchmarkForwardPair(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := testProfile(b, 100, 2)
	p.SetLength(200)
	dsq, other := randomSeq(rng, 200), randomSeq(rng, 200)
	b.SetBytes(int64(2 * 100 * 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardPair(p, dsq, other)
	}
}

// The log-space oracle on the same input, so that bench-smoke shows the
// ratio the odds-space recurrence buys (MB/s here is Mcell/s).
func BenchmarkGenericForwardLogSpace(b *testing.B) { benchmarkForward(b, forwardLogSpace) }

func BenchmarkViterbiTrace(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := testProfile(b, 100, 3)
	p.SetLength(200)
	dsq := randomSeq(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiTrace(p, dsq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPosteriorDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	p := testProfile(b, 100, 4)
	p.SetLength(200)
	dsq := randomSeq(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PosteriorDecode(p, dsq); err != nil {
			b.Fatal(err)
		}
	}
}
