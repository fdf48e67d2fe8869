package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around that call (spans inside the program are a later
// change). Spans of one op share Op; Parent is the span that caused
// this one (-1 for the op's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: start and end are no-ops, so the untraced and traced
// passes share their driving code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// noSpan is what a nil recorder hands out, and the parent of a root.
const noSpan = -1

func (r *recorder) start(op, parent int, layer, name string) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the finished spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

type interval struct{ lo, hi time.Duration }

// covered is the length of the union of ivs clipped to [lo, hi]:
// concurrent children must not be subtracted twice.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		if iv.lo < cur {
			iv.lo = cur
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			total += iv.hi - iv.lo
			cur = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// layerSelf sums self time per layer over the spans of one op.
func layerSelf(spans []span, op int) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Op == op {
			out[s.Layer] += self[s.ID]
		}
	}
	return out
}

// busy is the union length of the op's spans in one layer: how long
// that layer had at least one call in flight.
func busy(spans []span, op int, layer string) time.Duration {
	var ivs []interval
	for _, s := range spans {
		if s.Op == op && s.Layer == layer {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	return covered(ivs, 0, time.Duration(1<<62))
}
