package simt

import (
	"math/rand"
	"slices"
	"testing"

	"hmmer3gpu/internal/satmath"
)

// spanProbe runs a two-warp block whose warps issue the same seeded
// sequence of random spans — unaligned base, 1..32 cells, width 1 or
// 2 — through either the slice forms (SharedSpanStoreU8/I16,
// SharedSpanLoadU8/I16) or the word forms, over a region small enough
// that the warps keep touching each other's bytes. It returns every
// lane a load produced (padded to a full warp, so a word load's
// zero-filled tail is part of the record), a dump of the whole region
// after every store (so a store reaching past its span shows), and the
// launch's counters.
func spanProbe(t *testing.T, words bool, mode Mode, mem *MemFaultInjector, races bool) ([]uint16, KernelStats) {
	t.Helper()
	dev := NewDevice(GTX580())
	dev.Mode = mode
	if mem != nil {
		dev.Faults = NewFaultInjector(1)
		dev.Faults.Mem = mem
	}
	const size, lanes = 160, 32
	var seen [2][]uint16
	rep, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 2, SharedBytesPerBlock: size, DetectRaces: races, HostWorkers: 1,
	}, func(w *Warp) {
		rng := rand.New(rand.NewSource(int64(w.WarpInBlock) + 17))
		out := &seen[w.WarpInBlock]
		var u8 [lanes]uint8
		var i16 [lanes]int16
		reg := make([]uint64, lanes/4)
		raw := make([]byte, 2*lanes)
		dump := func() {
			for off := 0; off < size; off += lanes {
				w.SharedSpanLoadU8(u8[:], off, lanes)
				for _, b := range u8 {
					*out = append(*out, uint16(b))
				}
			}
		}
		for iter := 0; iter < 300; iter++ {
			width := 1 + rng.Intn(2)
			cells := 1 + rng.Intn(lanes)
			base := rng.Intn(size - cells*width + 1)
			rng.Read(raw) // every lane, tail lanes included, holds noise
			if rng.Intn(2) == 0 {
				switch {
				case words:
					satmath.PackLanes(reg[:lanes*width/8], raw[:lanes*width])
					w.SharedSpanStoreWords(reg[:lanes*width/8], base, cells, width)
				case width == 1:
					w.SharedSpanStoreU8(raw, base, cells)
				default:
					for l := range i16 {
						i16[l] = int16(uint16(raw[2*l]) | uint16(raw[2*l+1])<<8)
					}
					w.SharedSpanStoreI16(i16[:], base, cells)
				}
				dump()
				continue
			}
			var got [lanes]uint16
			switch {
			case words:
				r := reg[:lanes*width/8]
				satmath.PackLanes(r, raw[:lanes*width])
				w.SharedSpanLoadWords(r, base, cells, width)
				satmath.UnpackLanes(raw[:lanes*width], r)
				for l := range got {
					if width == 1 {
						got[l] = uint16(raw[l])
					} else {
						got[l] = uint16(raw[2*l]) | uint16(raw[2*l+1])<<8
					}
				}
			case width == 1:
				w.SharedSpanLoadU8(u8[:], base, cells)
				for l := 0; l < cells; l++ {
					got[l] = uint16(u8[l])
				}
			default:
				w.SharedSpanLoadI16(i16[:], base, cells)
				for l := 0; l < cells; l++ {
					got[l] = uint16(i16[l])
				}
			}
			*out = append(*out, got[:]...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(seen[0], seen[1]...), rep.Stats
}

// TestWordSpansEqualSliceSpans: the word-shaped span ops are the slice
// span ops with a different register shape — same lanes loaded, zero
// tail, nothing stored past the span, and the same counters, fault
// overlay reads and race reports.
func TestWordSpansEqualSliceSpans(t *testing.T) {
	overlay := func() *MemFaultInjector { return NewMemFaultInjector(9).FlipShared(0.2) }
	for _, c := range []struct {
		name  string
		mem   func() *MemFaultInjector
		races bool
	}{
		{"clean", nil, false},
		{"flip@shared", overlay, false},
		{"races", nil, true},
		{"flip@shared+races", overlay, true},
	} {
		for _, mode := range []Mode{ModeCycleAccurate, ModeFast} {
			var memS, memW *MemFaultInjector
			if c.mem != nil {
				memS, memW = c.mem(), c.mem()
			}
			wantSeen, wantStats := spanProbe(t, false, mode, memS, c.races)
			gotSeen, gotStats := spanProbe(t, true, mode, memW, c.races)
			if !slices.Equal(gotSeen, wantSeen) {
				t.Errorf("%s/%v: word spans observed different bytes than slice spans", c.name, mode)
			}
			if gotStats != wantStats {
				t.Errorf("%s/%v: stats\n got %+v\nwant %+v", c.name, mode, gotStats, wantStats)
			}
			if c.races && wantStats.SharedRaces == 0 {
				t.Errorf("%s/%v: the two warps never raced; the probe checks nothing", c.name, mode)
			}
			if c.mem != nil && memS.Flips() == 0 {
				t.Errorf("%s/%v: the overlay flipped nothing; the probe checks nothing", c.name, mode)
			}
		}
	}
}
