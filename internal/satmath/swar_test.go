package satmath

import (
	"math/rand"
	"testing"
)

func packU8(l [8]uint8) (w uint64) {
	for i, x := range l {
		w |= uint64(x) << (8 * i)
	}
	return w
}

func packI16(l [4]int16) (w uint64) {
	for i, x := range l {
		w |= uint64(uint16(x)) << (16 * i)
	}
	return w
}

// checkU8x8 holds one word-wide byte op to its scalar helper in every
// lane, not only the lane under test: a carry or borrow that crossed a
// lane boundary shows in a neighbour.
func checkU8x8(t *testing.T, name string, word func(a, b uint64) uint64, lane func(a, b uint8) uint8, a, b [8]uint8) {
	t.Helper()
	got := word(packU8(a), packU8(b))
	for i := range a {
		if g, want := uint8(got>>(8*i)), lane(a[i], b[i]); g != want {
			t.Fatalf("%s(%v, %v) lane %d = %d, want %d", name, a, b, i, g, want)
		}
	}
}

// TestU8x8Exhaustive runs all 256x256 operand pairs through each of
// the eight lane positions, with random neighbours in the other seven.
func TestU8x8Exhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b [8]uint8
	for pos := 0; pos < 8; pos++ {
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				ra, rb := rng.Uint64(), rng.Uint64()
				for i := range a {
					a[i], b[i] = uint8(ra>>(8*i)), uint8(rb>>(8*i))
				}
				a[pos], b[pos] = uint8(x), uint8(y)
				checkU8x8(t, "MaxU8x8", MaxU8x8, MaxU8, a, b)
				checkU8x8(t, "MSVStepU8x8 as max", func(a, b uint64) uint64 { return MSVStepU8x8(a, b, 0) }, MaxU8, a, b)
				checkU8x8(t, "MSVStepU8x8 as sub", func(a, b uint64) uint64 { return MSVStepU8x8(a, 0, b) }, SubU8, a, b)
				checkU8x8(t, "MSVStepU8x8", func(a, b uint64) uint64 { return MSVStepU8x8(a, b, a^b) },
					func(a, b uint8) uint8 { return SubU8(MaxU8(a, b), a^b) }, a, b)
			}
		}
	}
}

func TestU8x8SplatAndHMax(t *testing.T) {
	if got := SplatU8(0xA5); got != 0xA5A5A5A5A5A5A5A5 {
		t.Errorf("SplatU8 = %#x", got)
	}
	if SplatU8(0) != 0 || SplatU8(255) != ^uint64(0) {
		t.Error("SplatU8 edges")
	}
	// The maximum in each lane position in turn, over a floor that
	// differs lane to lane; then ties and the extremes.
	for pos := 0; pos < 8; pos++ {
		l := [8]uint8{1, 2, 3, 4, 5, 6, 7, 8}
		l[pos] = 200
		if got := HMaxU8x8(packU8(l)); got != 200 {
			t.Errorf("HMaxU8x8 with the maximum in lane %d = %d", pos, got)
		}
	}
	if HMaxU8x8(0) != 0 || HMaxU8x8(^uint64(0)) != 255 || HMaxU8x8(SplatU8(7)) != 7 {
		t.Error("HMaxU8x8 edges")
	}
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 100000; n++ {
		w := rng.Uint64()
		want := uint8(0)
		for i := 0; i < 8; i++ {
			want = MaxU8(want, uint8(w>>(8*i)))
		}
		if got := HMaxU8x8(w); got != want {
			t.Fatalf("HMaxU8x8(%#016x) = %d, want %d", w, got, want)
		}
	}
}

// edgeI16 draws a word lane biased towards the values where signed
// saturation and signed comparison change behaviour.
func edgeI16(rng *rand.Rand) int16 {
	edges := [...]int16{-32768, -32767, -1, 0, 1, 32766, 32767}
	if rng.Intn(3) > 0 {
		return edges[rng.Intn(len(edges))]
	}
	return int16(rng.Uint32())
}

// TestI16x4Adversarial holds the word-lane ops to AddI16/MaxI16 on
// over a million vectors with edge values in every lane.
func TestI16x4Adversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	for ; n > 0; n-- {
		var a, b [4]int16
		for i := range a {
			a[i], b[i] = edgeI16(rng), edgeI16(rng)
		}
		wa, wb := packI16(a), packI16(b)
		sum, max := AddI16x4(wa, wb), MaxI16x4(wa, wb)
		anyGt, hmax := false, NegInf16
		for i := range a {
			if g, want := int16(sum>>(16*i)), AddI16(a[i], b[i]); g != want {
				t.Fatalf("AddI16x4(%v, %v) lane %d = %d, want %d", a, b, i, g, want)
			}
			if g, want := int16(max>>(16*i)), MaxI16(a[i], b[i]); g != want {
				t.Fatalf("MaxI16x4(%v, %v) lane %d = %d, want %d", a, b, i, g, want)
			}
			anyGt = anyGt || a[i] > b[i]
			hmax = MaxI16(hmax, a[i])
		}
		if got := AnyGtI16x4(wa, wb); got != anyGt {
			t.Fatalf("AnyGtI16x4(%v, %v) = %v", a, b, got)
		}
		if got := HMaxI16x4(wa); got != hmax {
			t.Fatalf("HMaxI16x4(%v) = %d, want %d", a, got, hmax)
		}
	}
}

func TestI16x4SplatAndHMax(t *testing.T) {
	if got := SplatI16(-2); got != 0xFFFEFFFEFFFEFFFE {
		t.Errorf("SplatI16(-2) = %#x", got)
	}
	if SplatI16(NegInf16) != 0x8000800080008000 || SplatI16(0) != 0 {
		t.Error("SplatI16 edges")
	}
	for pos := 0; pos < 4; pos++ {
		l := [4]int16{-5, NegInf16, 0, -1}
		l[pos] = 7
		if got := HMaxI16x4(packI16(l)); got != 7 {
			t.Errorf("HMaxI16x4 with the maximum in lane %d = %d", pos, got)
		}
	}
	if HMaxI16x4(SplatI16(NegInf16)) != NegInf16 || HMaxI16x4(SplatI16(-3)) != -3 {
		t.Error("HMaxI16x4 of all-negative lanes")
	}
	w := packI16([4]int16{0, 0, 0, 1})
	if !AnyGtI16x4(w, 0) || AnyGtI16x4(w, w) || AnyGtI16x4(0, w) {
		t.Error("AnyGtI16x4 on a single greater lane")
	}
	if AnyGtI16x4(SplatI16(NegInf16), SplatI16(32767)) || !AnyGtI16x4(SplatI16(32767), SplatI16(NegInf16)) {
		t.Error("AnyGtI16x4 across the sign boundary")
	}
}

// The lane benchmarks run one saturating i16 add over the same 4096
// random lanes, a lane at a time and a word at a time; SetBytes counts
// lanes, so MB/s reads as Mlane/s and the two rows of a pair compare
// directly. (The benchmark of record's satmath.*_mlanes_per_s rungs
// time the scalar helpers only.)
const benchLanes = 4096

func BenchmarkAddI16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y, out := make([]int16, benchLanes), make([]int16, benchLanes), make([]int16, benchLanes)
	for i := range x {
		x[i], y[i] = int16(rng.Uint32()), int16(rng.Uint32())
	}
	b.SetBytes(benchLanes)
	for i := 0; i < b.N; i++ {
		for j := range out {
			out[j] = AddI16(x[j], y[j])
		}
	}
}

func BenchmarkAddI16x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y, out := make([]uint64, benchLanes/4), make([]uint64, benchLanes/4), make([]uint64, benchLanes/4)
	for i := range x {
		x[i], y[i] = rng.Uint64(), rng.Uint64()
	}
	b.SetBytes(benchLanes)
	for i := 0; i < b.N; i++ {
		for j := range out {
			out[j] = AddI16x4(x[j], y[j])
		}
	}
}

// TestPackLanesLayout holds PackLanes/UnpackLanes to the lane layout
// the word ops assume — byte l of a little-endian row is u8 lane l%8 of
// word l/8, byte pair l is i16 lane l%4 of word l/4 — for every source
// length up to three words: whole words, a ragged tail, and a
// destination longer or shorter than the source.
func TestPackLanesLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 24; n++ {
		for words := 0; words <= 4; words++ {
			src := make([]byte, n)
			rng.Read(src)
			reg := make([]uint64, words)
			for i := range reg {
				reg[i] = rng.Uint64() // stale lanes must be overwritten
			}
			PackLanes(reg, src)
			for l := 0; l < 8*words; l++ {
				want := byte(0)
				if l < n {
					want = src[l]
				}
				if got := byte(reg[l/8] >> (8 * (l % 8))); got != want {
					t.Fatalf("PackLanes(%d words, %d bytes): u8 lane %d = %#x, want %#x", words, n, l, got, want)
				}
			}
			for l := 0; l < 4*words && 2*l+1 < n; l++ {
				want := int16(uint16(src[2*l]) | uint16(src[2*l+1])<<8)
				if got := int16(reg[l/4] >> (16 * (l % 4))); got != want {
					t.Fatalf("PackLanes(%d words, %d bytes): i16 lane %d = %d, want %d", words, n, l, got, want)
				}
			}

			// Unpack into a longer buffer: the first min(n, 8*words)
			// bytes come back, the guard bytes past dst stay.
			buf := make([]byte, n+3)
			for i := range buf {
				buf[i] = 0xEE
			}
			UnpackLanes(buf[:n], reg)
			for i, b := range buf {
				switch {
				case i < n && i < 8*words && b != src[i]:
					t.Fatalf("UnpackLanes(%d bytes, %d words): byte %d = %#x, want %#x", n, words, i, b, src[i])
				case (i >= n || i >= 8*words) && b != 0xEE:
					t.Fatalf("UnpackLanes(%d bytes, %d words): wrote byte %d past the lanes it was given", n, words, i)
				}
			}
		}
	}
}
