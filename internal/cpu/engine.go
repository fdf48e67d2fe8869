package cpu

import (
	"context"
	"runtime"
	"sync"

	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/seq"
)

// Engine runs the striped filters over whole databases with a worker
// pool, the multi-core half of the paper's baseline configuration
// (HMMER 3.0 "utilizing multi-core and SSE capabilities").
type Engine struct {
	// Workers is the number of concurrent workers; 0 means GOMAXPROCS.
	Workers int
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// MSVAll computes MSV filter scores for every sequence in db. Each
// worker owns a private MSVEngine; results land at the sequence's
// database index.
func (e Engine) MSVAll(mp *profile.MSVProfile, db *seq.Database) []FilterResult {
	out, _ := e.MSVAllContext(context.Background(), mp, db)
	return out
}

// MSVAllContext is MSVAll with cancellation: ctx is checked before
// every sequence, so a deadline or cancel stops the pass mid-database
// (important when the engine is the host fallback for a multi-hour
// streamed run). On cancellation the partial results are discarded and
// ctx's error returned.
func (e Engine) MSVAllContext(ctx context.Context, mp *profile.MSVProfile, db *seq.Database) ([]FilterResult, error) {
	out := make([]FilterResult, db.NumSeqs())
	if err := e.parallel(ctx, db.NumSeqs(), func() any {
		return NewMSVEngine(mp)
	}, func(state any, i int) {
		out[i] = state.(*MSVEngine).Filter(db.Seqs[i].Residues)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ViterbiAll computes Viterbi filter scores for every sequence in db.
func (e Engine) ViterbiAll(vp *profile.VitProfile, db *seq.Database) []FilterResult {
	out, _ := e.ViterbiAllContext(context.Background(), vp, db)
	return out
}

// ViterbiAllContext is ViterbiAll with per-sequence cancellation; see
// MSVAllContext.
func (e Engine) ViterbiAllContext(ctx context.Context, vp *profile.VitProfile, db *seq.Database) ([]FilterResult, error) {
	out := make([]FilterResult, db.NumSeqs())
	if err := e.parallel(ctx, db.NumSeqs(), func() any {
		return NewVitEngine(vp)
	}, func(state any, i int) {
		out[i] = state.(*VitEngine).Filter(db.Seqs[i].Residues)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach calls do(i) for every i in [0, n) on the worker pool: the
// indexed fan-out for per-sequence work that needs no filter engine
// (host Forward). do must confine its writes to slot i.
func (e Engine) ForEach(n int, do func(i int)) {
	_ = e.parallel(context.Background(), n, func() any { return nil }, func(_ any, i int) { do(i) })
}

// parallel fans n indexed tasks out over the worker pool. newState
// constructs per-worker private state (a filter engine). ctx is
// checked before every task; the first non-nil ctx.Err() stops all
// workers and is returned (a context.Background() caller pays one
// atomic load per task).
func (e Engine) parallel(ctx context.Context, n int, newState func() any, do func(state any, i int)) error {
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		state := newState()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			do(state, i)
		}
		return nil
	}
	var next int64
	var mu sync.Mutex
	grab := func(batch int) (int, int) {
		mu.Lock()
		defer mu.Unlock()
		lo := int(next)
		if lo >= n {
			return n, n
		}
		hi := lo + batch
		if hi > n {
			hi = n
		}
		next = int64(hi)
		return lo, hi
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for wi := 0; wi < w; wi++ {
		go func() {
			defer wg.Done()
			state := newState()
			for {
				lo, hi := grab(32)
				if lo >= hi {
					return
				}
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					do(state, i)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
