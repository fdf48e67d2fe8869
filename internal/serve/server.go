// Package serve implements hmmserved's core: a long-running,
// overload-safe HMM search service that keeps packed target databases
// and a bounded LRU of calibrated profiles resident across queries and
// multiplexes concurrent searches onto a shared device pool.
//
// Robustness is the design center (DESIGN §2i):
//
//   - Admission control: a token bucket plus a bounded fair queue shed
//     excess load with 429 + Retry-After instead of queueing without
//     bound, so the p99 of admitted queries stays flat under overload
//     and memory stays bounded.
//   - Fairness: queued queries wait in per-tenant FIFOs served
//     round-robin; a flooding tenant cannot starve the rest.
//   - Degradation: devices that end runs quarantined collect strikes
//     and are cordoned out of the pool; queries degrade to the host
//     CPU (mid-run via the scheduler's fallback, or wholesale when the
//     pool is empty) and still return byte-identical hits.
//   - Result caching keyed by the checkpoint layer's SHA-256 config
//     fingerprint (model + thresholds + chunking) plus the database
//     content hash — a content key, never a path.
//   - Two-stage drain: the first SIGTERM stops admission, fails queued
//     waiters into a journal, and lets in-flight queries finish; a
//     second signal aborts them mid-kernel via context cancellation.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/dispatch"
	"hmmer3gpu/internal/faults"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/obs"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/simt"
)

// Config configures a Server. The zero value of most fields selects a
// sensible default (documented per field); DBs is required.
type Config struct {
	// DBs maps database names (the ?db= parameter) to resident
	// databases. Every database must be chunked with BatchResidues.
	DBs map[string]*pipeline.ResidentDB
	// TargetLen is the assumed target length for pipeline calibration
	// (must match the one-shot CLI's -targlen for byte-identical
	// output). Default 350.
	TargetLen int
	// BatchResidues is the residue budget queries are scheduled with
	// (must match the CLI's -batchres). Required.
	BatchResidues int64

	// Mem, Mode, Spec, Devices describe the device pool. Devices
	// defaults to 2; Spec to the GTX 580.
	Mem     gpu.MemConfig
	Mode    simt.Mode
	Spec    simt.DeviceSpec
	Devices int
	// DevsPerQuery is how many devices one query's scheduler spans
	// (default 1: concurrency across queries, not within one).
	DevsPerQuery int
	// Faults/FaultSeed inject device faults at pool creation (chaos
	// testing): a faults.Parse spec of dev<N> clauses only.
	Faults    string
	FaultSeed int64
	// CordonAfter is how many consecutive quarantined leases cordon a
	// device out of the pool: 0 means 2, and a negative value never
	// cordons (dispatch.Policy's convention).
	CordonAfter int

	// Rate/Burst shape the admission token bucket (queries per second;
	// Rate <= 0 disables it).
	Rate  float64
	Burst float64
	// MaxConcurrent bounds queries executing simultaneously (default
	// Devices/DevsPerQuery); MaxQueue bounds queries waiting for a slot
	// (default MaxConcurrent) — beyond it, queries are shed.
	MaxConcurrent int
	MaxQueue      int
	// QueryTimeout is the per-query deadline (default 2m); requests may
	// ask for less via ?timeout= but never more.
	QueryTimeout time.Duration

	// Policy and Verify tune each query's scheduler (see
	// pipeline.StreamConfig).
	Policy dispatch.Policy
	Verify pipeline.VerifyMode
	// Workers is the host worker goroutine count per query (0 =
	// GOMAXPROCS).
	Workers int

	// ProfileCap bounds the calibrated-profile LRU (default 16);
	// ResultCap the result cache (default 256 entries).
	ProfileCap int
	ResultCap  int
	// MaxModelBytes bounds an uploaded model (default 8 MiB).
	MaxModelBytes int64

	// DrainJournal, when set, is the checkpoint journal that receives
	// one record per query refused during drain, fsync'd before the
	// refusal is answered; ReplayDrainJournal re-admits them on the
	// next start.
	DrainJournal string

	// Logf receives operational log lines (default: silent).
	Logf func(format string, args ...any)
	// Metrics receives service counters/histograms; when nil the
	// server creates its own registry (it backs /metrics either way).
	Metrics *obs.Registry
	// Now is the clock (injectable for tests; default time.Now).
	Now func() time.Time
}

// profileEntry is one calibrated pipeline resident in the profile LRU.
type profileEntry struct {
	pl   *pipeline.Pipeline
	fp   checkpoint.Fingerprint
	name string
}

type buildCall struct {
	done  chan struct{}
	entry *profileEntry
	err   error
}

// DrainSummary reports what the graceful drain did.
type DrainSummary struct {
	// Completed is how many in-flight queries finished during drain.
	Completed int
	// Journaled is how many queued queries were refused and journaled.
	Journaled int
	// Lost is how many queued queries were refused without a durable
	// journal record: no journal was configured or opened, the
	// startup replay refused it, or the append failed.
	Lost int
}

// Server is the resident search service. Create with New, expose
// Handler over net/http, call Drain on the first termination signal
// and Abort on the second.
type Server struct {
	cfg    Config
	abc    *alphabet.Alphabet
	reg    *obs.Registry
	mux    *http.ServeMux
	bucket *tokenBucket
	adm    *admitter
	pool   *devicePool

	mu        sync.Mutex // guards profiles, results, building, searching
	profiles  *lru[*profileEntry]
	results   *lru[*pipeline.Result]
	building  map[string]*buildCall
	searching map[string]*searchCall

	// ready gates /readyz: it stays false — and load balancers keep
	// traffic away — until the caller finishes startup work (resident
	// DB loading, drain-journal replay) and calls MarkReady. /search
	// itself is not gated: the replay path drives it pre-ready.
	ready atomic.Bool

	wg sync.WaitGroup // in-flight /search handlers

	stateMu   sync.Mutex
	draining  bool
	journal   *checkpoint.Journal
	journaled int
	lost      int
	refused   string // the drain journal ReplayDrainJournal refused, kept as found

	abortCtx    context.Context
	abortCancel context.CancelFunc
}

// New validates the config, builds the device pool, and returns a
// ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.DBs) == 0 {
		return nil, errors.New("serve: no databases configured")
	}
	if cfg.BatchResidues < 1 {
		return nil, fmt.Errorf("serve: batch residues %d < 1", cfg.BatchResidues)
	}
	for name, rdb := range cfg.DBs {
		if rdb == nil || len(rdb.Batches) == 0 {
			return nil, fmt.Errorf("serve: database %q is empty", name)
		}
		if rdb.BatchResidues != cfg.BatchResidues {
			return nil, fmt.Errorf("serve: database %q chunked at %d residues, server runs at %d (results would not match the one-shot CLI)",
				name, rdb.BatchResidues, cfg.BatchResidues)
		}
	}
	if cfg.TargetLen == 0 {
		cfg.TargetLen = 350
	}
	if cfg.Devices < 1 {
		cfg.Devices = 2
	}
	if cfg.DevsPerQuery < 1 {
		cfg.DevsPerQuery = 1
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = simt.GTX580()
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = cfg.Devices / cfg.DevsPerQuery
		if cfg.MaxConcurrent < 1 {
			cfg.MaxConcurrent = 1
		}
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = cfg.MaxConcurrent
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Minute
	}
	if cfg.ProfileCap < 1 {
		cfg.ProfileCap = 16
	}
	if cfg.ResultCap < 1 {
		cfg.ResultCap = 256
	}
	if cfg.MaxModelBytes < 1 {
		cfg.MaxModelBytes = 8 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	sys := simt.NewSystem(cfg.Spec, cfg.Devices).SetMode(cfg.Mode)
	if cfg.Faults != "" {
		plan, err := faults.Parse(cfg.Faults, cfg.FaultSeed, cfg.Devices, 0)
		if err != nil {
			return nil, err
		}
		if plan.Cluster != nil || plan.Crash != nil {
			return nil, fmt.Errorf("serve: fault spec %q: only dev<N> clauses apply to a server", cfg.Faults)
		}
		if err := sys.ApplyFaults(plan.Devices); err != nil {
			return nil, err
		}
	}

	abortCtx, abortCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		abc:         alphabet.New(),
		reg:         reg,
		bucket:      newTokenBucket(cfg.Rate, cfg.Burst, cfg.Now),
		adm:         newAdmitter(cfg.MaxConcurrent, cfg.MaxQueue),
		pool:        newDevicePool(sys.Devices, cfg.CordonAfter),
		profiles:    newLRU[*profileEntry](cfg.ProfileCap),
		results:     newLRU[*pipeline.Result](cfg.ResultCap),
		building:    make(map[string]*buildCall),
		searching:   make(map[string]*searchCall),
		abortCtx:    abortCtx,
		abortCancel: abortCancel,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler is the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// MarkReady flips /readyz healthy. Call it after startup work —
// binding the listener and replaying any drain journal — so a restart
// never advertises readiness while journaled queries are still being
// re-admitted.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Abort hard-cancels every running query (the second-signal path):
// their contexts cancel down to mid-kernel polls and the handlers
// answer 503.
func (s *Server) Abort() { s.abortCancel() }

// Drain runs the graceful first-signal stage: stop admitting, fail and
// journal queued waiters, then block until in-flight queries have
// finished. It returns a summary the caller logs; "0 lost" is the
// contract — every query past admission either completed or has a
// durable journal record — and Lost counts every query that has
// neither.
func (s *Server) Drain() DrainSummary {
	s.stateMu.Lock()
	if s.draining {
		s.stateMu.Unlock()
		s.wg.Wait()
		return DrainSummary{}
	}
	s.draining = true
	switch path := s.cfg.DrainJournal; path {
	case "": // no drain journal configured
	case s.refused:
		s.cfg.Logf("drain journal: keeping %s as found (the startup replay refused it); queued queries are not journaled", path)
	default:
		j, err := checkpoint.Create(path, drainJournalFP, checkpoint.Options{})
		if err != nil {
			s.cfg.Logf("drain journal: %v", err)
		}
		s.journal = j
	}
	s.stateMu.Unlock()

	_, inflight := s.adm.depth()
	s.adm.startDrain()
	s.wg.Wait()

	s.stateMu.Lock()
	sum := DrainSummary{Completed: inflight, Journaled: s.journaled, Lost: s.lost}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.cfg.Logf("drain journal: %v", err)
		}
		s.journal = nil
	}
	s.stateMu.Unlock()
	s.cfg.Logf("drain complete: %d in-flight completed, %d queued journaled, %d lost", sum.Completed, sum.Journaled, sum.Lost)
	return sum
}

func (s *Server) isDraining() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.draining
}

// journalRefusal appends one drain-journal record, fsync'd, for a query
// refused during drain and reports whether it did. The record carries
// the full model upload, so a restarted server can re-POST it
// (ReplayDrainJournal). A refusal with no journal, or whose append
// fails, is counted lost; a failed append also closes the journal, so
// no later record lands behind a damaged one.
func (s *Server) journalRefusal(tenant, db, query string, model []byte) bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.journal != nil {
		rec := drainRecord{Tenant: tenant, DB: db, Query: query, Model: model}
		err := s.journal.Append(checkpoint.Record{Seq: uint64(s.journaled), Payload: rec.encode()})
		if err == nil {
			s.journaled++
			return true
		}
		s.cfg.Logf("drain journal: %v", err)
		s.journal.Close()
		s.journal = nil
	}
	s.lost++
	return false
}

// getPipeline returns the calibrated pipeline for a model upload,
// building it at most once per content hash (singleflight) and keeping
// it in the bounded LRU. hit reports whether it was already resident.
func (s *Server) getPipeline(key string, body []byte) (e *profileEntry, hit bool, err error) {
	s.mu.Lock()
	if e, ok := s.profiles.get(key); ok {
		s.mu.Unlock()
		return e, true, nil
	}
	if c, ok := s.building[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.entry, false, c.err
	}
	c := &buildCall{done: make(chan struct{})}
	s.building[key] = c
	s.mu.Unlock()

	h, err := hmm.Read(bytes.NewReader(body), s.abc)
	if err == nil {
		opts := pipeline.DefaultOptions()
		opts.Workers = s.cfg.Workers
		var pl *pipeline.Pipeline
		pl, err = pipeline.New(h, s.cfg.TargetLen, opts)
		if err == nil {
			fp := pl.Fingerprint(pipeline.StreamConfig{BatchResidues: s.cfg.BatchResidues})
			c.entry = &profileEntry{pl: pl, fp: fp, name: h.Name}
		}
	}
	c.err = err

	s.mu.Lock()
	delete(s.building, key)
	if c.err == nil {
		s.profiles.put(key, c.entry)
	}
	s.mu.Unlock()
	if c.err == nil {
		s.reg.AddInt("hmmer_serve_profile_builds_total", 1)
	}
	close(c.done)
	return c.entry, false, c.err
}

// resultKey is the cache key: config fingerprint (model, thresholds,
// calibration, chunk budget) plus database content hash. Nothing
// path-shaped enters it.
func resultKey(fp checkpoint.Fingerprint, rdb *pipeline.ResidentDB) string {
	return hex.EncodeToString(fp[:]) + ":" + hex.EncodeToString(rdb.Hash[:])
}

func (s *Server) cachedResult(key string) (*pipeline.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results.get(key)
}

func (s *Server) storeResult(key string, res *pipeline.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results.put(key, res)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a profile HMM to /search", http.StatusMethodNotAllowed)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	start := time.Now()

	if s.isDraining() {
		s.reg.AddInt("hmmer_serve_refused_drain_total", 1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: not admitting queries", http.StatusServiceUnavailable)
		return
	}

	q := r.URL.Query()
	dbName := q.Get("db")
	rdb, ok := s.cfg.DBs[dbName]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown database %q", dbName), http.StatusNotFound)
		return
	}
	format := q.Get("format")
	if format == "" {
		format = "tbl"
	}
	if format != "tbl" && format != "json" {
		http.Error(w, fmt.Sprintf("unknown format %q (want tbl or json)", format), http.StatusBadRequest)
		return
	}
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	useCache := q.Get("cache") != "off"
	timeout := s.cfg.QueryTimeout
	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad timeout %q", t), http.StatusBadRequest)
			return
		}
		if d < timeout {
			timeout = d
		}
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxModelBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading model: %v", err), http.StatusBadRequest)
		return
	}
	sum := sha256.Sum256(body)
	modelKey := hex.EncodeToString(sum[:])

	// A query whose profile is already resident can be answered from
	// the result cache without spending an admission token: cache hits
	// cost microseconds, and charging them would let a cacheable
	// workload shed work it could have absorbed.
	s.mu.Lock()
	peeked, resident := s.profiles.peek(modelKey)
	s.mu.Unlock()
	if resident && useCache {
		if res, ok := s.cachedResult(resultKey(peeked.fp, rdb)); ok {
			s.reg.AddInt("hmmer_serve_cache_hits_total", 1)
			s.respond(w, format, peeked, res, start, "hit", "")
			return
		}
	}

	if ok, retry := s.bucket.take(); !ok {
		s.shed(w, retry)
		return
	}

	entry, _, err := s.getPipeline(modelKey, body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad model: %v", err), http.StatusBadRequest)
		return
	}
	key := resultKey(entry.fp, rdb)
	if useCache {
		if res, ok := s.cachedResult(key); ok {
			s.reg.AddInt("hmmer_serve_cache_hits_total", 1)
			s.respond(w, format, entry, res, start, "hit", "")
			return
		}
	}
	s.reg.AddInt("hmmer_serve_cache_misses_total", 1)

	// Per-query deadline, threaded all the way to the kernels' between-
	// block cancellation polls; Abort (second signal) cancels it too.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stopAbort := context.AfterFunc(s.abortCtx, cancel)
	defer stopAbort()

	// Coalesce identical concurrent misses: if another handler is
	// already computing this exact (fingerprint, database) result, wait
	// for it instead of burning a second admission slot on duplicate
	// work — the thundering-herd case of N clients uploading the same
	// model at once costs one execution. Skipped when the client asked
	// for cache=off: that is an explicit request for a fresh run.
	var call *searchCall
	if useCache {
		s.mu.Lock()
		if c, ok := s.searching[key]; ok {
			s.mu.Unlock()
			s.reg.AddInt("hmmer_serve_search_coalesced_total", 1)
			select {
			case <-c.done:
			case <-ctx.Done():
				s.queryErr(w, ctx, ctx.Err())
				return
			}
			if c.err != nil {
				s.admitErr(w, ctx, c.err, tenant, dbName, entry, body)
				return
			}
			s.respond(w, format, entry, c.res, start, "coalesced", c.degraded)
			return
		}
		call = &searchCall{done: make(chan struct{})}
		s.searching[key] = call
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			delete(s.searching, key)
			s.mu.Unlock()
			close(call.done)
		}()
	}

	queueStart := time.Now()
	if err := s.adm.acquire(ctx, tenant); err != nil {
		if call != nil {
			call.err = err
		}
		s.admitErr(w, ctx, err, tenant, dbName, entry, body)
		return
	}
	defer s.adm.release()
	s.reg.Observe("hmmer_serve_queue_wait_seconds", time.Since(queueStart).Seconds(), obs.LatencyBuckets()...)

	res, degraded, err := s.execute(ctx, entry, rdb)
	if err != nil {
		if call != nil {
			call.err = err
		}
		s.queryErr(w, ctx, err)
		return
	}
	if call != nil {
		call.res, call.degraded = res, degraded
	}
	if degraded != "" {
		s.reg.AddInt("hmmer_serve_degraded_total", 1)
	}
	if useCache {
		s.storeResult(key, res)
	}
	s.respond(w, format, entry, res, start, "miss", degraded)
}

// searchCall is one in-flight cache-miss execution that concurrent
// identical queries coalesce onto; done closes when the leader's
// handler returns with res/degraded or err populated.
type searchCall struct {
	done     chan struct{}
	res      *pipeline.Result
	degraded string
	err      error
}

// admitErr maps an admission (or coalesced-leader) failure to its
// response. A query refused because drain started while it was queued
// is journaled — coalesced followers too: each was an accepted query,
// and each must be replayable. Its 503 says whether it was.
func (s *Server) admitErr(w http.ResponseWriter, ctx context.Context, err error, tenant, dbName string, entry *profileEntry, body []byte) {
	switch {
	case errors.Is(err, ErrShed):
		s.shed(w, time.Second)
	case errors.Is(err, ErrDraining):
		s.reg.AddInt("hmmer_serve_refused_drain_total", 1)
		msg := "draining: queued query refused (journaled)"
		if !s.journalRefusal(tenant, dbName, entry.name, body) {
			msg = "draining: queued query refused (not journaled)"
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, msg, http.StatusServiceUnavailable)
	default:
		s.queryErr(w, ctx, err)
	}
}

// execute runs one admitted query: lease devices (or degrade to the
// host CPU when the pool has none left), run the resident streaming
// engine, and feed the pool's strike counter from the scheduler's
// quarantine report. degraded is "" for a clean device run, "fallback"
// when some batches drained to the host mid-run, "cpu" for a
// whole-query host run.
func (s *Server) execute(ctx context.Context, entry *profileEntry, rdb *pipeline.ResidentDB) (res *pipeline.Result, degraded string, err error) {
	lease, err := s.pool.lease(ctx, s.cfg.DevsPerQuery)
	if err != nil {
		return nil, "", err
	}
	devs := make([]*simt.Device, len(lease))
	for i, d := range lease {
		devs[i] = d.dev
	}
	scfg := pipeline.StreamConfig{
		BatchResidues: s.cfg.BatchResidues,
		Policy:        s.cfg.Policy,
		Verify:        s.cfg.Verify,
	}
	// With no devices leased the same call runs the query on the host.
	res, err = entry.pl.RunResidentStreamContext(ctx, &simt.System{Devices: devs}, s.cfg.Mem, rdb, scfg)
	if lease == nil {
		return res, "cpu", err
	}
	if err != nil {
		// The run never produced a fault report; release without
		// touching strikes.
		s.pool.release(lease, nil)
		return nil, "", err
	}
	extra := res.Extra.(*pipeline.MultiGPUStreamExtra)
	quarantined := make([]bool, len(lease))
	for i := range lease {
		if i < len(extra.Schedule.Faults.Devices) {
			quarantined[i] = extra.Schedule.Faults.Devices[i].Quarantined
		}
	}
	s.pool.release(lease, quarantined)
	if extra.Schedule.Faults.Fallbacks > 0 {
		degraded = "fallback"
	}
	s.updateDeviceGauges()
	return res, degraded, nil
}

func (s *Server) shed(w http.ResponseWriter, retry time.Duration) {
	s.reg.AddInt("hmmer_serve_shed_total", 1)
	secs := int(retry/time.Second) + 1
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	http.Error(w, "overloaded: query shed, retry later", http.StatusTooManyRequests)
}

// queryErr maps an execution error to its status: deadline -> 504,
// cancellation (client gone or hard abort) -> 503, anything else is a
// real 500.
func (s *Server) queryErr(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "query cancelled", http.StatusServiceUnavailable)
	default:
		s.reg.AddInt("hmmer_serve_errors_total", 1)
		s.cfg.Logf("query failed: %v", err)
		http.Error(w, fmt.Sprintf("search failed: %v", err), http.StatusInternalServerError)
	}
}

// respond renders the result. The body is a pure function of the
// Result and format — per-run facts (cache hit, degradation) ride in
// headers only, so a cached response is byte-identical to the original
// and both byte-diff cleanly against the one-shot CLI's table.
func (s *Server) respond(w http.ResponseWriter, format string, entry *profileEntry, res *pipeline.Result, start time.Time, cache, degraded string) {
	s.reg.AddInt("hmmer_serve_queries_total", 1)
	s.reg.Observe("hmmer_serve_latency_seconds", time.Since(start).Seconds(), obs.LatencyBuckets()...)
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Fingerprint", hex.EncodeToString(entry.fp[:]))
	if degraded != "" {
		w.Header().Set("X-Degraded", degraded)
	}
	var buf bytes.Buffer
	if format == "json" {
		if err := writeJSONResult(&buf, entry.name, res); err != nil {
			s.queryErr(w, context.Background(), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
	} else {
		if err := pipeline.WriteTblout(&buf, entry.name, res); err != nil {
			s.queryErr(w, context.Background(), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set("Content-Length", fmt.Sprintf("%d", buf.Len()))
	w.Write(buf.Bytes())
}

// jsonFloat marshals like a float64 but survives the ±Inf sentinel
// scores (an overflowed MSV filter reports +Inf bits), which
// encoding/json otherwise rejects.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// writeJSONResult renders the deterministic JSON body: hits and stage
// pass counts only — never wall times or schedule reports, which vary
// run to run and would break cached-response byte identity.
func writeJSONResult(w io.Writer, query string, res *pipeline.Result) error {
	type hitJSON struct {
		Index   int       `json:"index"`
		Name    string    `json:"name"`
		MSVBits jsonFloat `json:"msv_bits"`
		VitBits jsonFloat `json:"vit_bits"`
		FwdBits jsonFloat `json:"fwd_bits"`
		PValue  jsonFloat `json:"p_value"`
		EValue  jsonFloat `json:"e_value"`
	}
	type stageJSON struct {
		In  int `json:"in"`
		Out int `json:"out"`
	}
	out := struct {
		Query   string    `json:"query"`
		Hits    []hitJSON `json:"hits"`
		MSV     stageJSON `json:"msv"`
		Viterbi stageJSON `json:"viterbi"`
		Forward stageJSON `json:"forward"`
	}{Query: query, Hits: []hitJSON{},
		MSV:     stageJSON{res.MSV.In, res.MSV.Out},
		Viterbi: stageJSON{res.Viterbi.In, res.Viterbi.Out},
		Forward: stageJSON{res.Forward.In, res.Forward.Out}}
	for _, h := range res.Hits {
		out.Hits = append(out.Hits, hitJSON{h.Index, h.Name,
			jsonFloat(h.MSVBits), jsonFloat(h.VitBits), jsonFloat(h.FwdBits),
			jsonFloat(h.PValue), jsonFloat(h.EValue)})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// healthPayload is the /healthz and /readyz body.
type healthPayload struct {
	Status   string `json:"status"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	Devices  struct {
		Total    int   `json:"total"`
		Healthy  int   `json:"healthy"`
		Cordoned []int `json:"cordoned"`
		Busy     int   `json:"busy"`
	} `json:"devices"`
	Queue struct {
		Depth    int `json:"depth"`
		Max      int `json:"max"`
		Inflight int `json:"inflight"`
	} `json:"queue"`
}

func (s *Server) health() healthPayload {
	var p healthPayload
	healthy, cordoned, busy := s.pool.health()
	p.Devices.Total = healthy + cordoned
	p.Devices.Healthy = healthy
	p.Devices.Cordoned = s.pool.cordonedIndexes()
	if p.Devices.Cordoned == nil {
		p.Devices.Cordoned = []int{}
	}
	p.Devices.Busy = busy
	p.Queue.Depth, p.Queue.Inflight = s.adm.depth()
	p.Queue.Max = s.cfg.MaxQueue
	p.Draining = s.isDraining()
	p.Ready = s.ready.Load()
	switch {
	case p.Draining:
		p.Status = "draining"
	case !p.Ready:
		p.Status = "starting" // startup (DB load / journal replay) still running
	case healthy == 0:
		p.Status = "degraded" // still serving, on the host CPU
	default:
		p.Status = "ok"
	}
	return p
}

// handleHealthz is liveness: 200 as long as the process can answer,
// with the full device/queue state in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReadyz is readiness: 503 until MarkReady (resident DBs loaded
// and any drain-journal replay finished) and again once draining —
// load balancers route here only between those points. The degraded
// all-devices-cordoned state stays 200: it still serves correct
// results from the CPU.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p := s.health()
	code := http.StatusOK
	if p.Draining || !p.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, p)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(v)
	w.Write(append(b, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.updateGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func (s *Server) updateGauges() {
	queued, inflight := s.adm.depth()
	s.reg.Set("hmmer_serve_queue_depth", float64(queued))
	s.reg.Set("hmmer_serve_inflight", float64(inflight))
	s.updateDeviceGauges()
}

func (s *Server) updateDeviceGauges() {
	healthy, cordoned, _ := s.pool.health()
	s.reg.Set("hmmer_serve_devices_healthy", float64(healthy))
	s.reg.Set("hmmer_serve_devices_cordoned", float64(cordoned))
}
