package simt

import (
	"math/rand"
	"slices"
	"testing"
)

// rowProbe runs a two-warp block whose warps issue the same seeded
// sequence of spans longer than the warp — shared word loads, word
// stores and touches at unaligned bases, width 1 or 2, and global
// spans of width 1 to 8 at unaligned addresses — either as one call
// each (rows) or as the loop of warp-wide calls at consecutive offsets
// that the call stands for, 32 cells each with a ragged last one. The
// region is small enough that the warps keep touching each other's
// bytes. It returns every register word a load produced (a row's
// chunks are contiguous word ranges, so both forms fill the same
// words), a dump of the region after every store, the counters, and
// the counters the warp-wide calls of the loop form cost by definition
// — one access, one cycle and a warp of lane slots each, and per
// global call the 128-byte segments its bytes touch — tallied by hand,
// all but the race count.
func rowProbe(t *testing.T, rows bool, mode Mode, mem *MemFaultInjector, races bool) (seenAll []uint64, got, tally KernelStats) {
	t.Helper()
	dev := NewDevice(GTX580())
	dev.Mode = mode
	if mem != nil {
		dev.Faults = NewFaultInjector(1)
		dev.Faults.Mem = mem
	}
	const size, lanes, maxCells = 720, 32, 5 * 32
	var seen [2][]uint64
	var tallies [2]KernelStats
	rep, err := dev.Launch(LaunchConfig{
		Blocks: 1, WarpsPerBlock: 2, SharedBytesPerBlock: size, DetectRaces: races, HostWorkers: 1,
	}, func(w *Warp) {
		rng := rand.New(rand.NewSource(int64(w.WarpInBlock) + 29))
		out, want := &seen[w.WarpInBlock], &tallies[w.WarpInBlock]
		reg := make([]uint64, maxCells*2/8)
		dump := make([]uint64, size/8)
		shared := func(n int, store bool) {
			want.TotalLaneSlots += lanes
			want.ActiveLaneSlots += int64(n)
			want.IssueCycles++
			if store {
				want.SharedStores++
			} else {
				want.SharedLoads++
			}
		}
		global := func(off int64, width, n int, cached, store bool) {
			segs := (off+int64(n*width)-1)>>7 - off>>7 + 1
			want.TotalLaneSlots += lanes
			want.ActiveLaneSlots += int64(n)
			want.GlobalRequestedBytes += int64(n * width)
			want.IssueCycles += segs
			switch {
			case cached && store:
				want.CachedStoreTransactions += segs
				want.CachedBytes += 128 * segs
			case cached:
				want.CachedLoadTransactions += segs
				want.CachedBytes += 128 * segs
			case store:
				want.GlobalStoreTransactions += segs
				want.GlobalBytes += 128 * segs
			default:
				want.GlobalLoadTransactions += segs
				want.GlobalBytes += 128 * segs
			}
		}
		dumpRegion := func() {
			w.SharedSpanLoadWords(dump, 0, size, 1)
			for c := 0; c < size; c += lanes {
				shared(min(lanes, size-c), false)
			}
			*out = append(*out, dump...)
		}
		// each issues one span, or its chunks, of cells cells of width
		// bytes from base; op(off, n, lo, hi) gets the chunk's offset,
		// cell count and register words.
		each := func(base int64, cells, width int, op func(off int64, n, lo, hi int)) {
			if rows {
				op(base, cells, 0, len(reg))
				return
			}
			for c := 0; c < cells; c += lanes {
				lo := c * width / 8
				op(base+int64(c*width), min(lanes, cells-c), lo, lo+lanes*width/8)
			}
		}
		for iter := 0; iter < 200; iter++ {
			width := 1 + rng.Intn(2)
			cells := lanes + 1 + rng.Intn(maxCells-lanes)
			base := rng.Intn(size - cells*width + 1)
			for j := range reg {
				reg[j] = rng.Uint64() // every word, past the span too, holds noise
			}
			switch rng.Intn(6) {
			case 0:
				each(int64(base), cells, width, func(off int64, n, lo, hi int) {
					w.SharedSpanStoreWords(reg[lo:hi], int(off), n, width)
					shared(n, true)
				})
				dumpRegion()
			case 1, 2:
				each(int64(base), cells, width, func(off int64, n, lo, hi int) {
					w.SharedSpanLoadWords(reg[lo:hi], int(off), n, width)
					shared(n, false)
				})
				*out = append(*out, reg[:(cells+lanes-1)/lanes*lanes*width/8]...)
			case 3:
				store := rng.Intn(2) == 0
				each(int64(base), cells, width, func(off int64, n, _, _ int) {
					w.SharedSpanTouch(int(off), width, n, store)
					shared(n, store)
				})
			default:
				gw := 1 << rng.Intn(4)
				gbase := rng.Int63n(4096)
				cached, store := rng.Intn(2) == 0, rng.Intn(2) == 0
				each(gbase, cells, gw, func(off int64, n, _, _ int) {
					switch {
					case cached && store:
						w.GlobalSpanStoreCached(off, gw, n)
					case cached:
						w.GlobalSpanLoadCached(off, gw, n)
					case store:
						w.GlobalSpanStore(off, gw, n)
					default:
						w.GlobalSpanLoad(off, gw, n)
					}
					global(off, gw, n, cached, store)
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tally = KernelStats{WarpsExecuted: 2}
	for i := range tallies {
		tally.Add(&tallies[i])
	}
	return append(seen[0], seen[1]...), rep.Stats, tally
}

// TestRowSpansEqualChunkLoops: a span longer than the warp is charged,
// race-noted and read — through the fault overlay where there is one —
// exactly as the loop of warp-wide spans it stands for: one access per
// chunk, the last one ragged, and for global spans the 128-byte
// segments each chunk touches. The loop itself is held to a tally of
// what warp-wide spans cost.
func TestRowSpansEqualChunkLoops(t *testing.T) {
	overlay := func() *MemFaultInjector { return NewMemFaultInjector(13).FlipShared(0.2) }
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
			var memL, memR *MemFaultInjector
			if c.mem != nil {
				memL, memR = c.mem(), c.mem()
			}
			wantSeen, wantStats, tally := rowProbe(t, false, mode, memL, c.races)
			gotSeen, gotStats, _ := rowProbe(t, true, mode, memR, c.races)
			if !slices.Equal(gotSeen, wantSeen) {
				t.Errorf("%s/%v: row spans observed different bytes than their chunk loops", c.name, mode)
			}
			if gotStats != wantStats {
				t.Errorf("%s/%v: stats\n got %+v\nwant %+v", c.name, mode, gotStats, wantStats)
			}
			if mode == ModeFast {
				tally = KernelStats{WarpsExecuted: 2}
			}
			tally.SharedRaces = wantStats.SharedRaces
			if wantStats != tally {
				t.Errorf("%s/%v: the chunk loops' stats\n got %+v\nwant %+v", c.name, mode, wantStats, tally)
			}
			if c.races && wantStats.SharedRaces == 0 {
				t.Errorf("%s/%v: the two warps never raced; the probe checks nothing", c.name, mode)
			}
			if c.mem != nil && memL.Flips() == 0 {
				t.Errorf("%s/%v: the overlay flipped nothing; the probe checks nothing", c.name, mode)
			}
		}
	}
}
