package satmath

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The row primitives (msvRow, vitMIRow, addRow, ddRound) and the MSV
// sequence loop (msvFilter), SSE2 on amd64, are held word for word to
// their generic twins, which are the
// single-word ops the rest of this package tests against the scalar
// helpers. Each check runs both on copies of the same inputs and
// compares every output word and the returned value.

func randWords(rng *rand.Rand, n int, lane func(*rand.Rand) uint64) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = lane(rng)
	}
	return w
}

func anyWord(rng *rand.Rand) uint64 { return rng.Uint64() }

// edgeWord packs four edgeI16 lanes.
func edgeWord(rng *rand.Rand) uint64 {
	var l [4]int16
	for i := range l {
		l[i] = edgeI16(rng)
	}
	return packI16(l)
}

func checkMSVRow(t *testing.T, what string, src, cost []uint64, xB, bias uint64) {
	t.Helper()
	got, want := slices.Clone(src), slices.Clone(src)
	gx := msvRow(got, src, cost, xB, bias)
	wx := msvRowGeneric(want, src, cost, xB, bias)
	// In place, as the device kernel runs it.
	alias := slices.Clone(src)
	ax := msvRow(alias, alias, cost, xB, bias)
	if gx != wx || ax != wx || !slices.Equal(got, want) || !slices.Equal(alias, want) {
		t.Fatalf("%s: msvRow(%d words, xB %#x, bias %#x) = %#x %#x, in place %#x %#x; generic %#x %#x",
			what, len(src), xB, bias, got, gx, alias, ax, want, wx)
	}
}

// checkMSVFilter holds msvFilter to msvFilterGeneric: the same xJ,
// exit and stopping residue, and every word of both DP rows, from prev
// as the first row.
func checkMSVFilter(t *testing.T, what string, prev, cost []uint64, dsq []byte, p MSVParams) (overflowed bool, at int) {
	t.Helper()
	gp, gc := slices.Clone(prev), make([]uint64, len(prev))
	wp, wc := slices.Clone(prev), make([]uint64, len(prev))
	gx, gov, gat := msvFilter(gp, gc, cost, dsq, p)
	wx, wov, wat := msvFilterGeneric(wp, wc, cost, dsq, p)
	if gx != wx || gov != wov || gat != wat || !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
		t.Fatalf("%s: msvFilter(%d words, %d residues, %+v) = xJ %d overflowed %v at %d, rows %#x %#x; generic %d %v %d, %#x %#x",
			what, len(prev)-2, len(dsq), p, gx, gov, gat, gp, gc, wx, wov, wat, wp, wc)
	}
	return wov, wat
}

func newVitMI(rng *rand.Rand, n int, lane func(*rand.Rand) uint64) *VitMI {
	w := func() []uint64 { return randWords(rng, n, lane) }
	return &VitMI{
		M: w(), I: w(),
		SrcM: w(), SrcI: w(), SrcD: w(), PrevM: w(), PrevI: w(),
		TMM: w(), TIM: w(), TDM: w(), TMI: w(), TII: w(), Emit: w(),
	}
}

func checkVitMIRow(t *testing.T, what string, r *VitMI, xB uint64) {
	t.Helper()
	want := *r
	want.M, want.I = slices.Clone(r.M), slices.Clone(r.I)
	wx := vitMIRowGeneric(&want, xB)
	gx := vitMIRow(r, xB)
	if gx != wx || !slices.Equal(r.M, want.M) || !slices.Equal(r.I, want.I) {
		t.Fatalf("%s: vitMIRow(%d words, xB %#x) = M %#x I %#x max %#x; generic M %#x I %#x max %#x",
			what, len(r.M), xB, r.M, r.I, gx, want.M, want.I, wx)
	}
}

func checkAddRow(t *testing.T, what string, a, b []uint64) {
	t.Helper()
	want := make([]uint64, len(a))
	addRowGeneric(want, a, b)
	got := make([]uint64, len(a))
	addRow(got, a, b)
	inA, inB := slices.Clone(a), slices.Clone(b)
	addRow(inA, inA, b)
	addRow(inB, a, inB)
	if !slices.Equal(got, want) || !slices.Equal(inA, want) || !slices.Equal(inB, want) {
		t.Fatalf("%s: addRow(%d words) = %#x, into a %#x, into b %#x; generic %#x", what, len(a), got, inA, inB, want)
	}
}

func checkDDRound(t *testing.T, what string, d, src, w []uint64) {
	t.Helper()
	got, want := slices.Clone(d), slices.Clone(d)
	gc := ddRound(got, src, w)
	wc := ddRoundGeneric(want, src, w)
	if gc != wc || !slices.Equal(got, want) {
		t.Fatalf("%s: ddRound(%d words) = %#x changed %v; generic %#x changed %v", what, len(d), got, gc, want, wc)
	}
	// In place (src is d), and as the striped engines' serial chain:
	// src the same array two and three words behind d.
	for _, back := range []int{0, 2, 3} {
		lead := make([]uint64, back)
		copy(lead, src)
		buf := append(lead, d...)
		buf2 := slices.Clone(buf)
		n := len(d)
		gc := ddRound(buf[back:back+n], buf[:n], w)
		wc := ddRoundGeneric(buf2[back:back+n], buf2[:n], w)
		if gc != wc || !slices.Equal(buf, buf2) {
			t.Fatalf("%s: ddRound(%d words, src %d words behind) = %#x changed %v; generic %#x changed %v",
				what, n, back, buf, gc, buf2, wc)
		}
	}
}

// laneFill is the stale content of a lane-move buffer's word i: every
// word differs and none is zero, so a lane left unwritten, or a word
// written past a slice, shows.
func laneFill(sentinel uint64, i int) uint64 {
	return sentinel ^ uint64(i+1)*0x9E3779B97F4A7C15
}

// checkLanes holds PackLanes and UnpackLanes to their generic loops.
// PackLanes fills a words-long dst, off words into a buffer with a
// sentinel word on each side, from src placed off bytes into its own
// buffer; UnpackLanes writes len(src) bytes, off bytes into a buffer
// with a sentinel word on each side, from the packed words. Every
// word and byte of both buffers must match, so a write past either
// slice, a lane past src left stale, or an over-long src or dst not
// cut short fails.
func checkLanes(t *testing.T, what string, words, off int, src []byte, sentinel uint64) {
	t.Helper()
	got := make([]uint64, off+words+2)
	for i := range got {
		got[i] = laneFill(sentinel, i)
	}
	want := slices.Clone(got)
	in := append(make([]byte, off), src...)[off:]
	PackLanes(got[off+1:off+1+words], in)
	packLanesGeneric(want[off+1:off+1+words], src)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: PackLanes(%d words at word %d, %d bytes at byte %d) = %#x; generic %#x",
			what, words, off, len(src), off, got, want)
	}

	lanes := make([]uint64, words)
	for i := range lanes {
		lanes[i] = want[off+1+i] ^ laneFill(^sentinel, i)
	}
	n := len(src)
	gotB := make([]byte, off+8+n+8)
	for i := range gotB {
		gotB[i] = byte(laneFill(sentinel, i>>3) >> (8 * (i & 7)))
	}
	wantB := slices.Clone(gotB)
	UnpackLanes(gotB[off+8:off+8+n], lanes)
	unpackLanesGeneric(wantB[off+8:off+8+n], lanes)
	if !slices.Equal(gotB, wantB) {
		t.Fatalf("%s: UnpackLanes(%d bytes at byte %d, %d words) = %#x; generic %#x",
			what, n, off, words, gotB, wantB)
	}
}

// TestLanesMatchGeneric runs the lane moves at every dst length from
// 0 to 40 words, every src length from empty to nine bytes past the
// words, and every buffer offset from 0 to 7.
func TestLanesMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	src := make([]byte, 8*40+9)
	for words := 0; words <= 40; words++ {
		for n := 0; n <= 8*words+9; n++ {
			for off := 0; off < 8; off++ {
				rng.Read(src[:n])
				checkLanes(t, "lengths", words, off, src[:n], rng.Uint64())
			}
		}
	}
}

// TestRowsU8LanePairs runs the MSV row over every u8 pair of
// TestU8x8Exhaustive — the cell against the emission cost — in every
// lane position of a 128-bit register and of an odd last word, with
// random neighbours, across xB and bias values at the lane edges.
func TestRowsU8LanePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const pairs = 256 * 256
	xBs := []uint64{0, SplatU8(1), SplatU8(127), SplatU8(128), SplatU8(254), SplatU8(255), rng.Uint64()}
	biases := []uint64{0, SplatU8(1), SplatU8(0x80), SplatU8(0xFF)}
	for pos := 0; pos < 8; pos++ {
		// Word 0 is a random lead-in that moves every pair into the
		// other half of its register; each row has an odd length, so
		// its last pair sits in the single-word tail.
		for lead := 0; lead <= 1; lead++ {
			src := randWords(rng, lead+pairs, anyWord)
			cost := randWords(rng, lead+pairs, anyWord)
			sh := 8 * pos
			for p := 0; p < pairs; p++ {
				x, y := uint64(p>>8), uint64(p&0xFF)
				j := lead + p
				src[j] = src[j]&^(0xFF<<sh) | x<<sh
				cost[j] = cost[j]&^(0xFF<<sh) | y<<sh
			}
			if len(src)%2 == 0 {
				src, cost = src[:len(src)-1], cost[:len(cost)-1]
			}
			for _, xB := range xBs {
				for _, bias := range biases {
					checkMSVRow(t, "lane pairs", src, cost, xB, bias)
				}
			}
		}
	}
}

// msvTable is a 29-row cost table (the alphabet's codes) for an
// M-node model in 16-lane stripes, n = 2*ceil(M/16) words a row: costs
// within a few units of bias, and now and then a cheap one, as
// profile.MSVProfile's are; the lanes past M cost 255.
func msvTable(rng *rand.Rand, m int, bias uint8) (cost []uint64, n int) {
	q := (m + 15) / 16
	n = 2 * q
	row := make([]byte, 16*q)
	cost = make([]uint64, 29*n)
	for r := 0; r < 29; r++ {
		for i := range row {
			c := int(bias) + rng.Intn(9) - 2
			if rng.Intn(8) == 0 {
				c = rng.Intn(256)
			}
			if k := i/16 + (i%16)*q; k >= m {
				c = 255
			}
			row[i] = uint8(min(max(c, 0), 255))
		}
		PackLanes(cost[r*n:(r+1)*n], row)
	}
	return cost, n
}

// TestMSVFilterMatchesGeneric runs the whole MSV residue loop at the
// paper's model sizes and every stripe edge, on an empty sequence, one
// residue, every code, and random targets, with constants as
// profile.MSVProfile derives them and at the saturating extremes. It
// also reaches an overflow on the first and on the last row, and a
// residue past the table: the loop stops on it before reading its row,
// and MSVFilterU8 panics.
func TestMSVFilterMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	every := make([]byte, 29)
	for r := range every {
		every[r] = byte(r)
	}
	panics, lastRows := 0, 0
	for _, m := range []int{1, 15, 16, 17, 48, 100, 400, 1056} {
		for _, p := range []MSVParams{
			{Bias: 19, TBM: 27, TEC: 2, TJB: 9, Base: 190, Overflow: 236},
			{Bias: 66, TBM: 5, TEC: 0, TJB: 0, Base: 190, Overflow: 189},
			{Bias: 255, TBM: 0, TEC: 255, TJB: 255, Base: 255, Overflow: 255},
			{Bias: 0, TBM: 255, TEC: 1, TJB: 1, Base: 0, Overflow: 255},
		} {
			cost, n := msvTable(rng, m, p.Bias)
			start := make([]uint64, n+2)
			for i := range start {
				start[i] = SplatU8(p.Bias)
			}
			what := fmt.Sprintf("M=%d", m)
			checkMSVFilter(t, what+" empty", start, cost, nil, p)
			checkMSVFilter(t, what+" one residue", start, cost, []byte{byte(rng.Intn(29))}, p)
			checkMSVFilter(t, what+" every code", start, cost, every, p)
			dsq := make([]byte, 300)
			for i := range dsq {
				dsq[i] = byte(rng.Intn(29))
			}
			checkMSVFilter(t, what+" random", start, cost, dsq, p)
			checkMSVFilter(t, what+" random start row", randWords(rng, n+2, anyWord), cost, dsq, p)

			// Overflow on the first row: nothing is below a zero
			// threshold. On the last: the highest threshold a row
			// maximum reaches first trips on that row; cut dsq there.
			tp := p
			tp.Overflow = 0
			if ov, at := checkMSVFilter(t, what+" overflow first row", start, cost, dsq, tp); !ov || at != 0 {
				t.Fatalf("%s: threshold 0 stopped at %d, overflowed %v; want the first row", what, at, ov)
			}
			for tp.Overflow = 255; tp.Overflow > 0; tp.Overflow-- {
				if _, ov, at := msvFilterGeneric(slices.Clone(start), make([]uint64, n+2), cost, dsq, tp); ov {
					if at > 0 {
						if ov, last := checkMSVFilter(t, what+" overflow last row", start, cost, dsq[:at+1], tp); !ov || last != at {
							t.Fatalf("%s: %d residues with threshold %d stopped at %d, overflowed %v", what, at+1, tp.Overflow, last, ov)
						}
						lastRows++
					}
					break
				}
			}

			// A code past the table at the first, a middle and the last
			// residue, unless a row before it overflows.
			for _, at := range []int{0, 150, 299} {
				bad := slices.Clone(dsq)
				bad[at] = []byte{29, 30, 255}[rng.Intn(3)]
				ov, got := checkMSVFilter(t, what+" bad residue", start, cost, bad, p)
				if !ov && got != at {
					t.Fatalf("%s: code %d at %d stopped the loop at %d", what, bad[at], at, got)
				}
				func() {
					defer func() {
						r, _ := recover().(string)
						if (r == residuePanic) == ov {
							t.Errorf("%s: MSVFilterU8 with code %d at %d (overflow before it: %v) recovered %q",
								what, bad[at], at, ov, r)
						}
						if r == residuePanic {
							panics++
						}
					}()
					MSVFilterU8(slices.Clone(start), make([]uint64, n+2), cost, bad, p)
				}()
			}
		}
	}
	if panics < 48 || lastRows < 16 {
		t.Errorf("%d bad residues reached, want at least 48; %d overflows on the last row, want at least 16", panics, lastRows)
	}
}

// TestRowsI16Edges runs the word-lane rows over the i16 edges
// (edgeI16: -32768, -32767, -1, 0, 1, 32766, 32767 in two lanes of
// three) at every length from 0 to 40 words, so both the paired loop
// and the odd last word see them.
func TestRowsI16Edges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for rep := 0; rep < 50; rep++ {
		for n := 0; n <= 40; n++ {
			checkVitMIRow(t, "edges", newVitMI(rng, n, edgeWord), edgeWord(rng))
			checkAddRow(t, "edges", randWords(rng, n, edgeWord), randWords(rng, n, edgeWord))
			checkDDRound(t, "edges", randWords(rng, n, edgeWord), randWords(rng, n, edgeWord), randWords(rng, n, edgeWord))
		}
	}
}

// TestRowsLengths runs every primitive on random words at every length
// from 0 to 40 words, odd and even.
func TestRowsLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for rep := 0; rep < 50; rep++ {
		for n := 0; n <= 40; n++ {
			checkMSVRow(t, "lengths", randWords(rng, n, anyWord), randWords(rng, n, anyWord), rng.Uint64(), rng.Uint64())
			checkVitMIRow(t, "lengths", newVitMI(rng, n, anyWord), rng.Uint64())
			checkAddRow(t, "lengths", randWords(rng, n, anyWord), randWords(rng, n, anyWord))
			checkDDRound(t, "lengths", randWords(rng, n, anyWord), randWords(rng, n, anyWord), randWords(rng, n, anyWord))
		}
	}
	if xE := msvRow(nil, nil, nil, ^uint64(0), 0); xE != 0 {
		t.Errorf("msvRow of an empty row = %#x, want 0", xE)
	}
	if xE := vitMIRow(&VitMI{}, SplatI16(32767)); xE != SplatI16(NegInf16) {
		t.Errorf("vitMIRow of an empty row = %#x, want NegInf16 lanes", xE)
	}
}

// TestMSVRowBiasCarries drives cells past OverflowThreshold, so the
// bias add carries from one byte lane into the next: the stored word
// is the 64-bit sum, in both the paired loop and the odd last word.
func TestMSVRowBiasCarries(t *testing.T) {
	for n := 1; n <= 5; n++ {
		src := make([]uint64, n)
		for j := range src {
			src[j] = packU8([8]uint8{0xFF, 0xFE, 0xFF, 0x00, 0xF0, 0xFF, 0xFF, 0x7F})
		}
		cost := make([]uint64, n)
		bias := SplatU8(0x11)
		checkMSVRow(t, "bias carry", src, cost, 0, bias)
		dst := make([]uint64, n)
		MSVRowU8(dst, src, cost, 0, bias)
		for j, w := range dst {
			if want := src[j] + bias; w != want {
				t.Fatalf("%d words: word %d = %#x, want the word sum %#x", n, j, w, want)
			}
		}
	}
}

// TestRowsPanicOnLengthMismatch: a length mismatch is a caller bug and
// panics in Go, before any assembly could run past a slice.
func TestRowsPanicOnLengthMismatch(t *testing.T) {
	short, long := make([]uint64, 3), make([]uint64, 4)
	mi := newVitMI(rand.New(rand.NewSource(14)), 4, anyWord)
	mi.TII = short
	for name, call := range map[string]func(){
		"MSVRowU8":    func() { MSVRowU8(long, long, short, 0, 0) },
		"VitMIRowI16": func() { VitMIRowI16(mi, 0) },
		"AddRowI16":   func() { AddRowI16(short, long, long) },
		"DDRoundI16":  func() { DDRoundI16(long, short, long) },
		// The MSV rows must also hold whole two-word stripes.
		"MSVFilterU8":          func() { MSVFilterU8(long, short, long, nil, MSVParams{}) },
		"MSVFilterU8 odd rows": func() { MSVFilterU8(short, short, long, nil, MSVParams{}) },
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); r != rowLenPanic && r != msvRowsPanic {
					t.Errorf("%s with mismatched rows: recovered %q, want the length panic", name, r)
				}
			}()
			call()
		}()
	}
}

// FuzzRowsMatchGeneric holds every primitive to its generic twin on
// rows cut from the fuzzed bytes: row r is the input words rotated by
// r words and 8r bits, so each row differs and every length the input
// allows is reached.
func FuzzRowsMatchGeneric(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x80\x00\x80\x01\x00\xff\x7f"), SplatU8(0x80), SplatU8(0x11))
	f.Add([]byte(strings.Repeat("\x00\x80\xff\x7f\x01\x00\xfe\xff", 9)), SplatI16(NegInf16), SplatU8(1))
	// An MSV run with profile.MSVProfile's constants: M = 32, six
	// cost rows and a seventh code past them.
	f.Add([]byte(strings.Repeat("\x13\x15\x00\x02\x1c\xff\x11\x13", 24)), uint64(0xecbe0f), uint64(0x09021b13))
	f.Fuzz(func(t *testing.T, raw []byte, xB, bias uint64) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = packU8([8]uint8(raw[8*i : 8*i+8]))
		}
		n := len(words)
		row := func(r int) []uint64 {
			out := make([]uint64, n)
			for j := range out {
				out[j] = bits.RotateLeft64(words[(j+r)%n], 8*r)
			}
			return out
		}
		checkMSVRow(t, "fuzz", row(0), row(1), xB, bias)
		checkVitMIRow(t, "fuzz", &VitMI{
			M: row(0), I: row(1),
			SrcM: row(2), SrcI: row(3), SrcD: row(4), PrevM: row(5), PrevI: row(6),
			TMM: row(7), TIM: row(8), TDM: row(9), TMI: row(10), TII: row(11), Emit: row(12),
		}, xB)
		checkAddRow(t, "fuzz", row(0), row(1))
		checkDDRound(t, "fuzz", row(0), row(1), row(2))
		// An MSV filter run: M from xB, the cost table's rows and the
		// residues from the words and bytes, the constants from xB's
		// and bias's bytes. Codes run one past the table's rows, so
		// some sequences stop on a residue past it.
		if q := 1 + int(xB%70); n >= 2*q+2 {
			rows := n / (2 * q)
			dsq := make([]byte, len(raw))
			for i, b := range raw {
				dsq[i] = b % byte(min(rows+1, 255))
			}
			p := MSVParams{
				Bias: uint8(bias), TBM: uint8(bias >> 8), TEC: uint8(bias >> 16), TJB: uint8(bias >> 24),
				Base: uint8(xB >> 8), Overflow: uint8(xB >> 16),
			}
			checkMSVFilter(t, "fuzz", row(1)[:2*q+2], words, dsq, p)
		}
		// The raw bytes as lanes, into one word fewer than they need
		// (an over-long src), exactly enough, and one and two more.
		for words := max(n-1, 0); words <= n+2; words++ {
			checkLanes(t, "fuzz", words, int(bias&7), raw, xB)
		}
	})
}

// BenchmarkPackLanes and BenchmarkUnpackLanes move the device kernels'
// row spans at model size M on 32-lane warps: the MSV row (M+1 u8
// cells into (M/32+1)*4 words) and the Viterbi row (M+1 i16 cells into
// (M/32+1)*8 words).
func BenchmarkPackLanes(b *testing.B) {
	benchLaneMoves(b, func(reg []uint64, row []byte) { PackLanes(reg, row) })
}

func BenchmarkUnpackLanes(b *testing.B) {
	benchLaneMoves(b, func(reg []uint64, row []byte) { UnpackLanes(row, reg) })
}

func benchLaneMoves(b *testing.B, move func(reg []uint64, row []byte)) {
	for _, m := range []int{48, 100, 400, 1056} {
		for _, c := range []struct {
			lane  string
			width int
		}{{"u8", 1}, {"i16", 2}} {
			reg := make([]uint64, (m/32+1)*4*c.width)
			row := make([]byte, (m+1)*c.width)
			b.Run(fmt.Sprintf("%s/M=%d", c.lane, m), func(b *testing.B) {
				b.SetBytes(int64(len(row)))
				for i := 0; i < b.N; i++ {
					move(reg, row)
				}
			})
		}
	}
}
