package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
	"hmmer3gpu/internal/workload"
)

var abc = alphabet.New()

const fixtureTargetLen = 350

// serveFixture builds a query model (as the HMM text a client would
// POST), a small homolog-rich database, and the one-shot reference
// table computed by the same engine the CLI uses.
type serveFixture struct {
	modelText []byte
	fasta     []byte
	refTbl    []byte
	budget    int64
}

var (
	fixtureOnce sync.Once
	fixtureVal  serveFixture
	fixtureErr  error
)

func fixture(t *testing.T) serveFixture {
	t.Helper()
	fixtureOnce.Do(func() { fixtureVal, fixtureErr = buildFixture() })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureVal
}

func buildFixture() (serveFixture, error) {
	var f serveFixture
	h, err := workload.Model("servetest", 60, abc, 31)
	if err != nil {
		return f, err
	}
	db, err := workload.Generate(workload.DBSpec{
		Name: "serve-db", NumSeqs: 70, MeanLen: 120, LogSigma: 0.4,
		MinLen: 30, MaxLen: 400, HomologFrac: 0.15, Seed: 5,
	}, h, abc)
	if err != nil {
		return f, err
	}
	var model bytes.Buffer
	if err := hmm.Write(&model, h); err != nil {
		return f, err
	}
	f.modelText = model.Bytes()
	var fasta bytes.Buffer
	if err := seq.WriteFASTA(&fasta, db, abc); err != nil {
		return f, err
	}
	f.fasta = fasta.Bytes()
	f.budget = db.TotalResidues() / 5

	// The one-shot reference: exactly what `hmmsearch -engine multigpu
	// -stream -batchres <budget> -sim fast -tblout` writes. The CLI
	// reads the model from its text file — the same serialization the
	// server receives — so the reference must round-trip it too (the
	// text format quantizes probabilities).
	h2, err := hmm.Read(bytes.NewReader(f.modelText), abc)
	if err != nil {
		return f, err
	}
	pl, err := pipeline.New(h2, fixtureTargetLen, pipeline.DefaultOptions())
	if err != nil {
		return f, err
	}
	sys := simt.NewSystem(simt.GTX580(), 2).SetMode(simt.ModeFast)
	ref, err := pl.RunMultiGPUStreamContext(context.Background(), sys, gpu.MemAuto, bytes.NewReader(f.fasta),
		pipeline.StreamConfig{BatchResidues: f.budget})
	if err != nil {
		return f, err
	}
	var tbl bytes.Buffer
	if err := pipeline.WriteTblout(&tbl, h.Name, ref); err != nil {
		return f, err
	}
	f.refTbl = tbl.Bytes()
	return f, nil
}

// newTestServer builds a Server over the fixture database; mutate lets
// a test adjust the config before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	f := fixture(t)
	rdb, err := pipeline.LoadResidentDB("test", bytes.NewReader(f.fasta), abc, f.budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		DBs:           map[string]*pipeline.ResidentDB{"test": rdb},
		TargetLen:     fixtureTargetLen,
		BatchResidues: f.budget,
		Mode:          simt.ModeFast,
		Devices:       2,
		Logf:          t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.MarkReady() // tests that exercise the pre-ready window skip this helper
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, params string, model []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/search?"+params, "text/plain", bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func counter(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, _ := s.reg.Get(name)
	return v
}

// The headline invariant: a served query's table is byte-identical to
// the one-shot CLI's, fresh and from the cache.
func TestServedMatchesOneShot(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, nil)

	resp, body := postQuery(t, ts, "db=test", f.modelText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, f.refTbl) {
		t.Fatalf("served table differs from one-shot reference:\nserved:\n%s\nreference:\n%s", body, f.refTbl)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first query X-Cache = %q, want miss", got)
	}
	fp := resp.Header.Get("X-Fingerprint")
	if len(fp) != 64 {
		t.Errorf("X-Fingerprint = %q, want 64 hex chars", fp)
	}

	// Same model content again: a cache hit with an identical body.
	resp2, body2 := postQuery(t, ts, "db=test", f.modelText)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second query X-Cache = %q, want hit", got)
	}
	if resp2.Header.Get("X-Fingerprint") != fp {
		t.Error("fingerprint changed between identical queries")
	}
	if !bytes.Equal(body2, body) {
		t.Error("cached body differs from fresh body")
	}
	if hits := counter(t, s, "hmmer_serve_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}

	// A different model must miss: the key is the config fingerprint,
	// not anything path- or handle-shaped.
	other, err := workload.Model("othermodel", 50, abc, 77)
	if err != nil {
		t.Fatal(err)
	}
	var otherText bytes.Buffer
	if err := hmm.Write(&otherText, other); err != nil {
		t.Fatal(err)
	}
	resp3, _ := postQuery(t, ts, "db=test", otherText.Bytes())
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp3.StatusCode)
	}
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different model X-Cache = %q, want miss", got)
	}
	if resp3.Header.Get("X-Fingerprint") == fp {
		t.Error("different model produced the same fingerprint")
	}
	if hits := counter(t, s, "hmmer_serve_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits after different model = %v, want still 1", hits)
	}
}

func TestServedJSONFormat(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, nil)
	resp, body := postQuery(t, ts, "db=test&format=json", f.modelText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Query string `json:"query"`
		Hits  []struct {
			Name   string  `json:"name"`
			EValue float64 `json:"e_value"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Query != "servetest" || len(out.Hits) == 0 {
		t.Errorf("JSON result query=%q hits=%d", out.Query, len(out.Hits))
	}
}

// A server injects only device faults: a clause for any other layer,
// or for a device the pool does not have, is refused at start-up.
func TestNewRejectsFaultsItCannotHonour(t *testing.T) {
	f := fixture(t)
	rdb, err := pipeline.LoadResidentDB("test", bytes.NewReader(f.fasta), abc, f.budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"w0:kill=1", "coord:kill=1", "journal:crash=1", "dev0:dead;coord:kill=1", "dev2:dead"} {
		_, err := New(Config{DBs: map[string]*pipeline.ResidentDB{"test": rdb}, BatchResidues: f.budget,
			Devices: 2, Faults: spec})
		if err == nil {
			t.Errorf("New with Faults %q accepted, want error", spec)
		}
	}
}

// Mid-query quarantine: with every device dead the scheduler's host
// fallback finishes the run, the response is flagged degraded, and the
// bytes still match. The next query finds the pool cordoned and runs
// wholesale on the CPU — still byte-identical.
func TestServedDegradedByteIdentical(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Faults = "dev0:dead;dev1:dead"
		cfg.CordonAfter = 1
		// One lease spans both devices, so the first faulted query
		// strikes out the whole pool.
		cfg.DevsPerQuery = 2
	})

	resp, body := postQuery(t, ts, "db=test&cache=off", f.modelText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Degraded"); got != "fallback" {
		t.Errorf("X-Degraded = %q, want fallback", got)
	}
	if !bytes.Equal(body, f.refTbl) {
		t.Error("degraded (mid-run fallback) table differs from one-shot reference")
	}

	// Both devices struck out; the pool is now empty.
	if healthy, cordoned, _ := s.pool.health(); healthy != 0 || cordoned != 2 {
		t.Fatalf("pool health after faulted run: healthy=%d cordoned=%d", healthy, cordoned)
	}
	resp2, body2 := postQuery(t, ts, "db=test&cache=off", f.modelText)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Degraded"); got != "cpu" {
		t.Errorf("X-Degraded = %q, want cpu", got)
	}
	if !bytes.Equal(body2, f.refTbl) {
		t.Error("fully-degraded (CPU) table differs from one-shot reference")
	}

	var h healthPayload
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || len(h.Devices.Cordoned) != 2 {
		t.Errorf("healthz after cordon: %+v", h)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("%s status %d, want %d: %s", path, resp.StatusCode, wantCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: bad JSON: %v", path, err)
	}
}

func TestTokenBucketSheds429(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Rate = 0.001
		cfg.Burst = 1
	})
	resp, _ := postQuery(t, ts, "db=test", f.modelText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d", resp.StatusCode)
	}
	resp2, _ := postQuery(t, ts, "db=test&cache=off", f.modelText)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if shed := counter(t, s, "hmmer_serve_shed_total"); shed != 1 {
		t.Errorf("shed_total = %v, want 1", shed)
	}

	// A cache hit must not need a token: the first query populated the
	// cache, so this one serves even with the bucket empty.
	resp3, body3 := postQuery(t, ts, "db=test", f.modelText)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "hit" {
		t.Errorf("cache hit with empty bucket: status %d X-Cache %q: %s",
			resp3.StatusCode, resp3.Header.Get("X-Cache"), body3)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = -1 // no queue at all
	})
	// Occupy the only slot so the HTTP query finds the queue full.
	if err := s.adm.acquire(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()
	resp, _ := postQuery(t, ts, "db=test&cache=off", f.modelText)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (queue full)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 429 without Retry-After")
	}
}

func TestQueryDeadline504(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, nil)
	resp, _ := postQuery(t, ts, "db=test&cache=off&timeout=1ns", f.modelText)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestUnknownDB404(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, nil)
	resp, _ := postQuery(t, ts, "db=nope", f.modelText)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestBadModel400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := postQuery(t, ts, "db=test", []byte("this is not an HMM"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// The automated drain test the acceptance criteria call for: with the
// single slot held, a queued query is refused with 503 and lands in
// the journal; new arrivals are refused; in-flight work completes;
// the summary reports zero loss.
func TestDrainJournalsQueuedAndRefusesNew(t *testing.T) {
	f := fixture(t)
	journal := filepath.Join(t.TempDir(), "drain.journal")
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 4
		cfg.DrainJournal = journal
	})

	// Hold the only slot (stands in for a long in-flight query).
	if err := s.adm.acquire(context.Background(), "inflight"); err != nil {
		t.Fatal(err)
	}

	// A queued query, waiting for the slot.
	queued := make(chan *http.Response, 1)
	go func() {
		resp, _ := postQuery(t, ts, "db=test&cache=off&tenant=queued", f.modelText)
		queued <- resp
	}()
	waitDepth(t, s.adm, 1)

	done := make(chan DrainSummary, 1)
	go func() { done <- s.Drain() }()

	resp := <-queued
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued query at drain: status %d, want 503", resp.StatusCode)
	}

	// The "in-flight query" finishes; Drain can now complete.
	s.adm.release()
	var sum DrainSummary
	select {
	case sum = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
	if sum.Journaled != 1 || sum.Lost != 0 {
		t.Errorf("drain journaled %d and lost %d, want 1 and 0", sum.Journaled, sum.Lost)
	}
	if sum.Completed != 1 {
		t.Errorf("drain completed %d, want 1", sum.Completed)
	}

	j, recs, err := checkpoint.Resume(journal, drainJournalFP, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	rec, err := decodeDrainRecord(recs[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "queued" || rec.DB != "test" || rec.Query != "servetest" || !bytes.Equal(rec.Model, f.modelText) {
		t.Errorf("journal record %+v", rec)
	}

	// New arrivals are refused while (and after) draining.
	resp2, _ := postQuery(t, ts, "db=test", f.modelText)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}

	var r healthPayload
	getJSON(t, ts, "/readyz", http.StatusServiceUnavailable, &r)
	if !r.Draining || r.Status != "draining" {
		t.Errorf("readyz during drain: %+v", r)
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &r)
}

// Abort cancels a running query mid-kernel: the handler answers 503.
func TestAbortCancelsRunning(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 4
	})
	// Hold the slot so the query is queued when Abort fires — the
	// deterministic way to catch it before completion.
	if err := s.adm.acquire(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}
	got := make(chan *http.Response, 1)
	go func() {
		resp, _ := postQuery(t, ts, "db=test&cache=off", f.modelText)
		got <- resp
	}()
	waitDepth(t, s.adm, 1)
	s.Abort()
	resp := <-got
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("aborted query: status %d, want 503", resp.StatusCode)
	}
	s.adm.release()
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	f := fixture(t)
	_, ts := newTestServer(t, nil)
	var h healthPayload
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" || h.Devices.Healthy != 2 || h.Queue.Depth != 0 {
		t.Errorf("healthz: %+v", h)
	}
	getJSON(t, ts, "/readyz", http.StatusOK, &h)

	postQuery(t, ts, "db=test", f.modelText)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"hmmer_serve_queries_total", "hmmer_serve_latency_seconds",
		"hmmer_serve_devices_healthy", "hmmer_serve_queue_depth",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
