package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/serve"
	"hmmer3gpu/internal/simt"
)

const (
	serveClients = 2
	serveDevices = 2
	// freshShare of the schedule asks for cache=off, a fresh compute
	// through admission, pool and scheduler; the rest may hit the cache.
	freshShare = 0.75
)

// serveState is a running service with its models resident.
type serveState struct {
	srv     *serve.Server
	ts      *httptest.Server
	rdb     *pipeline.ResidentDB
	clients [serveClients]*http.Client
	// cold holds the set-up queries' latencies: profile build,
	// calibration and first search.
	cold []float64
}

// serveSetup is everything before the service can answer from warm
// state: load and chunk the database, construct the server behind a
// real HTTP listener, and send each model once (the cold queries).
func serveSetup(abc *alphabet.Alphabet, models []*query, fasta []byte, sz sizes) (*serveState, error) {
	rdb, err := pipeline.LoadResidentDB("db", bytes.NewReader(fasta), abc, sz.serveBatchRes)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		DBs:           map[string]*pipeline.ResidentDB{"db": rdb},
		TargetLen:     sz.serveTargetLen,
		BatchResidues: sz.serveBatchRes,
		Mode:          simt.ModeFast,
		Devices:       serveDevices,
		DevsPerQuery:  1,
	})
	if err != nil {
		return nil, err
	}
	st := &serveState{srv: srv, rdb: rdb, ts: httptest.NewServer(srv.Handler())}
	srv.MarkReady()
	for c := range st.clients {
		st.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for c := range st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(models); i += serveClients {
				t0 := time.Now()
				_, err := st.post(c, models[i].text, false)
				mu.Lock()
				st.cold = append(st.cold, time.Since(t0).Seconds())
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		st.close()
		return nil, fmt.Errorf("cold query: %w", firstErr)
	}
	return st, nil
}

func (st *serveState) close() {
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	st.ts.Close()
	st.srv.Drain()
	st.srv.Abort() // releases the server's abort context
}

// post sends one query and returns the table. Anything but 200 — a
// shed, a refusal, an error — is a failed request.
func (st *serveState) post(client int, model []byte, fresh bool) ([]byte, error) {
	url := st.ts.URL + "/search?db=db"
	if fresh {
		url += "&cache=off"
	}
	resp, err := st.clients[client].Post(url, "text/plain", bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads /metrics, the service's own account of itself.
func (st *serveState) scrape() (map[string]float64, error) {
	resp, err := st.clients[0].Get(st.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(body)
}

// histDelta rebuilds the observations a /metrics histogram gained
// between two scrapes.
func histDelta(before, after map[string]float64, name string) *obs.Hist {
	h := obs.NewHist(obs.LatencyBuckets())
	var prev float64
	for i := range h.Counts {
		le := "+Inf"
		if i < len(h.Buckets) {
			le = fmt.Sprintf("%g", h.Buckets[i])
		}
		key := obs.WithLabel(name+"_bucket", "le", le)
		cum := after[key] - before[key]
		h.Counts[i] = uint64(cum - prev)
		prev = cum
	}
	h.Sum = after[name+"_sum"] - before[name+"_sum"]
	h.Count = uint64(after[name+"_count"] - before[name+"_count"])
	return h
}

// request is one entry of a client's schedule.
type request struct {
	model int
	fresh bool
}

// reply is what the client saw.
type reply struct {
	request
	latency float64
	err     error
}

// schedule draws one op's requests for every client from the seed.
func schedule(seed int64, op, models, perClient int) [serveClients][]request {
	var out [serveClients][]request
	for c := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, seedServe, 1000+op*serveClients+c)))
		for i := 0; i < perClient; i++ {
			out[c] = append(out[c], request{model: rng.Intn(models), fresh: rng.Float64() < freshShare})
		}
	}
	return out
}

// play sends the schedule closed-loop: each client's next request
// leaves when its previous one has been answered. want[i] is model i's
// reference table.
func (st *serveState) play(models []*query, want [][]byte, sched [serveClients][]request, rec *recorder, op, root int) (time.Duration, []reply) {
	var wg sync.WaitGroup
	replies := make([][]reply, serveClients)
	t0 := time.Now()
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, rq := range sched[c] {
				s := rec.start(op, root, "serve.request", "POST /search")
				t := time.Now()
				body, err := st.post(c, models[rq.model].text, rq.fresh)
				lat := time.Since(t).Seconds()
				rec.end(s)
				if err == nil {
					err = sameOutput(models[rq.model].h.Name, body, want[rq.model])
				}
				replies[c] = append(replies[c], reply{request: rq, latency: lat, err: err})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []reply
	for _, r := range replies {
		all = append(all, r...)
	}
	return wall, all
}

// serveRefs builds each model's reference: a CPU-engine search of the
// same bytes at the service's target length, as the tblout the service
// must return. Models calibrate side by side to keep this off-clock
// step short.
func serveRefs(abc *alphabet.Alphabet, models []*query, fasta []byte, targetLen int) ([]*pipeline.Pipeline, []*pipeline.Result, [][]byte, error) {
	pls := make([]*pipeline.Pipeline, len(models))
	results := make([]*pipeline.Result, len(models))
	tables := make([][]byte, len(models))
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				h, err := hmm.Read(bytes.NewReader(models[i].text), abc)
				if err != nil {
					return err
				}
				if pls[i], err = pipeline.New(h, targetLen, pipeline.DefaultOptions()); err != nil {
					return err
				}
				if results[i], err = pls[i].RunCPUStream(bytes.NewReader(fasta), 2000); err != nil {
					return err
				}
				var buf bytes.Buffer
				if err := pipeline.WriteTblout(&buf, h.Name, results[i]); err != nil {
					return err
				}
				tables[i] = buf.Bytes()
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("serve reference: %w", err)
		}
	}
	return pls, results, tables, nil
}

// directSystem is the one fast-mode device a direct run uses, kept
// across runs as the service keeps its pool.
func directSystem() *simt.System { return simt.NewSystem(simt.GTX580(), 1).SetMode(simt.ModeFast) }

// directRun is one query's search without the service around it: the
// resident streaming engine on one device, as serve runs it.
func directRun(pl *pipeline.Pipeline, sys *simt.System, rdb *pipeline.ResidentDB) (*pipeline.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := pl.RunResidentStreamContext(context.Background(), sys, gpu.MemAuto, rdb,
		pipeline.StreamConfig{BatchResidues: rdb.BatchResidues})
	return res, time.Since(t0), err
}

func runServe(cfg runConfig, traced bool) (*workloadResult, error) {
	abc := alphabet.New()
	sz := cfg.sz
	var models []*query
	for i := 0; i < sz.serveModels; i++ {
		q, err := newQuery(fmt.Sprintf("serve-query-%d", i), sz.serveM, abc, subSeed(cfg.seed, seedServe, i))
		if err != nil {
			return nil, err
		}
		models = append(models, q)
	}
	// Homologs of the first model are planted; the others search it as
	// unrelated queries do.
	tg, err := newTarget(swissprotSeqs(sz.serveSeqs, subSeed(cfg.seed, seedServe, 100)), models[0].h, abc)
	if err != nil {
		return nil, err
	}

	pls, refs, want, err := serveRefs(abc, models, tg.fasta, sz.serveTargetLen)
	if err != nil {
		return nil, err
	}

	out := newResult()
	m := out.metrics
	var st *serveState
	// This set-up holds four default calibrations and takes seconds, so
	// the run affords one repetition fewer than the other workloads.
	for i := 0; i < setupReps(traced, 2); i++ {
		if st != nil {
			st.close()
		}
		settle()
		t0 := time.Now()
		st, err = serveSetup(abc, models, tg.fasta, sz)
		if err != nil {
			return nil, fmt.Errorf("serve_mix set-up: %w", err)
		}
		if !traced {
			m.add("setup_s", "s", time.Since(t0).Seconds())
		}
	}
	defer st.close()

	opNo := 0
	// play one schedule; every request is an attempted op.
	op := func(rec *recorder, opID int) (time.Duration, []reply) {
		opNo++
		root := rec.start(opID, noSpan, layerOther, "serve_mix schedule")
		defer rec.end(root)
		wall, replies := st.play(models, want, schedule(cfg.seed, opNo, len(models), sz.serveRequests), rec, opID, root)
		for _, r := range replies {
			out.check(r.err)
		}
		return wall, replies
	}

	if !traced {
		// The probe is the modelled figure for the pool's device kind at
		// this model size, off the clock (see modelledProbe).
		gcups, err := modelledProbe(pls[0], simt.GTX580(), tg.db, sz.probeSeqs)
		if err != nil {
			return nil, err
		}
		var fresh []float64
		timedLoop(cfg.window, 2, func() {
			wall, replies := op(nil, 0)
			w := wall.Seconds()
			// Latency, cells and batches are over the fresh computes:
			// a cache hit searches nothing.
			var computes int
			var cells int64
			for _, r := range replies {
				if r.fresh && r.err == nil {
					fresh = append(fresh, r.latency)
					cells += totalCells(refs[r.model])
					computes++
				}
			}
			m.add("search_wall_s", "s", w)
			m.add("qps", "1/s", float64(len(replies))/w)
			m.add("cells_per_s", "1/s", float64(cells)/w)
			m.add("batches_per_s", "1/s", float64(computes*len(st.rdb.Batches))/w)
		})
		if len(fresh) == 0 {
			return out, nil
		}
		m.add("query_p50_s", "s", median(fresh))
		m.add("query_p90_s", "s", percentile(fresh, 0.9))
		m.add("modelled_gcups", "Gcell/s", gcups)
		m.add("time_to_result_s", "s", median(m["setup_s"].Vals)+median(m["search_wall_s"].Vals))
		return out, nil
	}

	rec := newRecorder()
	rows := make(map[string][]float64)
	var httpShare []float64
	var scrapeErr error
	tw, ok := tracedPass(m, cfg.tracedOps,
		func(opID int) (float64, bool) {
			before, err := st.scrape()
			if err != nil {
				scrapeErr = err
				return 0, false
			}
			wall, replies := op(rec, opID)
			after, err := st.scrape()
			if err != nil {
				scrapeErr = err
				return 0, false
			}
			var client float64
			for _, r := range replies {
				client += r.latency
			}
			server := histDelta(before, after, "hmmer_serve_latency_seconds").Sum
			queue := histDelta(before, after, "hmmer_serve_queue_wait_seconds").Sum
			rows["serve.request"] = append(rows["serve.request"], client)
			rows["serve.handler"] = append(rows["serve.handler"], server)
			rows["serve.queue_wait"] = append(rows["serve.queue_wait"], queue)
			rows["http_and_client"] = append(rows["http_and_client"], client-server)
			httpShare = append(httpShare, (client-server)/client)
			return wall.Seconds(), true
		},
		func() (float64, int, bool) {
			wall, replies := op(nil, 0)
			return wall.Seconds(), len(replies), true
		})
	if scrapeErr != nil {
		return nil, fmt.Errorf("serve_mix /metrics: %w", scrapeErr)
	}
	if !ok {
		return out, nil
	}

	// The stage rows are one query's, run directly: the service returns
	// tables, not stage statistics.
	sys := directSystem()
	if _, _, err := directRun(pls[0], sys, st.rdb); err != nil { // warm-up
		return nil, err
	}
	res, wall, err := directRun(pls[0], sys, st.rdb)
	if err != nil {
		return nil, err
	}
	stageRows(m, res, wall, 1)
	if err := outputRows(m, models[0].h.Name, refs[0]); err != nil {
		return nil, err
	}
	b := opBudget{layers: make(map[string]float64), wall: tw.traced, gapFrac: median(httpShare)}
	for row, vals := range rows {
		b.layers[row] = median(vals)
	}
	out.trace = traceRows(m, "serve_mix", rec.snapshot(), b, tw,
		"two clients run concurrently: rows are sums over a schedule's requests, not self times; serve.request is client-side, serve.handler and serve.queue_wait are deltas of the service's /metrics histograms, http_and_client is their difference")
	return out, nil
}
