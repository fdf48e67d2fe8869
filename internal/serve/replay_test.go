package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/simt"
)

// rawTestServer is newTestServer without MarkReady, for tests that
// exercise the pre-ready window.
func rawTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
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
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// /readyz answers 503 (status "starting") from construction until
// MarkReady; /healthz stays 200 throughout (the process is alive).
func TestReadyzGatedUntilMarkReady(t *testing.T) {
	s, ts := rawTestServer(t, nil)
	var p healthPayload
	getJSON(t, ts, "/readyz", http.StatusServiceUnavailable, &p)
	if p.Ready || p.Status != "starting" {
		t.Errorf("pre-ready readyz: %+v", p)
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &p)

	s.MarkReady()
	getJSON(t, ts, "/readyz", http.StatusOK, &p)
	if !p.Ready || p.Status != "ok" {
		t.Errorf("post-ready readyz: %+v", p)
	}
}

// drainQueued is one life of a server: it replays the journal at path
// at startup, as hmmserved does, then n queries queued behind a held
// slot are refused at drain into that journal. It returns the drain's
// summary, the bodies of the n 503s and the drain's log lines.
func drainQueued(t *testing.T, path string, n int) (DrainSummary, []string, []string) {
	t.Helper()
	f := fixture(t)
	var logMu sync.Mutex
	var logs []string
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = n + 2
		cfg.DrainJournal = path
		cfg.Logf = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})
	if _, err := s.ReplayDrainJournal(path, ""); err != nil {
		t.Logf("startup replay: %v", err)
	}
	if err := s.adm.acquire(context.Background(), "inflight"); err != nil {
		t.Fatal(err)
	}
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postQuery(t, ts, "db=test&cache=off&tenant=queued", f.modelText)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("queued query at drain: status %d, want 503", resp.StatusCode)
			}
			bodies[i] = string(body)
		}()
	}
	waitDepth(t, s.adm, n)
	done := make(chan DrainSummary, 1)
	go func() { done <- s.Drain() }()
	wg.Wait()
	s.adm.release()
	var sum DrainSummary
	select {
	case sum = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}
	logMu.Lock()
	defer logMu.Unlock()
	return sum, bodies, logs
}

// replayFresh replays the journal at path on a fresh, not yet ready
// server, as a restarted hmmserved does.
func replayFresh(t *testing.T, path, outDir string) (ReplaySummary, *Server, *httptest.Server, error) {
	t.Helper()
	s, ts := rawTestServer(t, nil)
	sum, err := s.ReplayDrainJournal(path, outDir)
	return sum, s, ts, err
}

// The restart contract: queries journaled at drain are re-admitted by
// a fresh server through its normal /search path, and the replayed
// responses are byte-identical to what a fresh query returns.
func TestRestartReplaysDrainJournalByteIdentical(t *testing.T) {
	f := fixture(t)
	journal := filepath.Join(t.TempDir(), "drain.journal")
	outDir := filepath.Join(t.TempDir(), "replayed")

	sum, _, _ := drainQueued(t, journal, 2)
	if sum.Journaled != 2 || sum.Lost != 0 {
		t.Fatalf("drain summary %+v, want 2 journaled, 0 lost", sum)
	}

	// Every journal record must carry a replayable model payload.
	j, recs, err := checkpoint.Resume(journal, drainJournalFP, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	for i, r := range recs {
		rec, err := decodeDrainRecord(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(i) || !bytes.Equal(rec.Model, f.modelText) {
			t.Fatalf("record %d: seq %d, model of %d bytes: want seq %d and the uploaded model", i, r.Seq, len(rec.Model), i)
		}
	}

	// Second life: a fresh server replays the journal before readiness.
	rsum, s2, ts2, err := replayFresh(t, journal, outDir)
	if err != nil {
		t.Fatalf("ReplayDrainJournal: %v", err)
	}
	if rsum.Replayed != 2 || rsum.Failed != 0 {
		t.Fatalf("replay summary %+v, want 2 replayed, 0 failed", rsum)
	}
	if got := counter(t, s2, "hmmer_serve_replayed_total"); got != 2 {
		t.Errorf("hmmer_serve_replayed_total = %v, want 2", got)
	}
	s2.MarkReady()

	// Replayed responses are byte-identical to the one-shot reference
	// and to a fresh query against the restarted server.
	_, fresh := postQuery(t, ts2, "db=test", f.modelText)
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("replay-%d.tbl", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, f.refTbl) {
			t.Errorf("replayed response %d differs from one-shot reference", i)
		}
		if !bytes.Equal(b, fresh) {
			t.Errorf("replayed response %d differs from fresh query", i)
		}
	}

	// A missing journal is a clean first-boot no-op.
	none, err := s2.ReplayDrainJournal(filepath.Join(t.TempDir(), "absent.journal"), "")
	if err != nil || none.Replayed != 0 || none.Failed != 0 {
		t.Errorf("missing journal: %+v, %v", none, err)
	}
}

// A replay settles the journal once every record is answered: a
// process killed after its replay answers nothing on its next start.
func TestReplaySettlesJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "drain.journal")
	drainQueued(t, journal, 2)
	first, _, _, err := replayFresh(t, journal, "")
	if err != nil || first.Replayed != 2 {
		t.Fatalf("first replay: %+v, %v; want 2 replayed", first, err)
	}
	again, _, _, err := replayFresh(t, journal, "")
	if err != nil || again.Replayed != 0 || again.Failed != 0 {
		t.Fatalf("replay after a kill: %+v, %v; want nothing answered", again, err)
	}
}

// A drain killed mid-append leaves a torn last record: replay drops it
// and answers the rest, with no failure.
func TestReplayDropsTornLastRecord(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "drain.journal")
	drainQueued(t, journal, 3)
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	sum, _, _, err := replayFresh(t, journal, "")
	if err != nil || sum.Replayed != 2 || sum.Failed != 0 {
		t.Fatalf("torn journal: %+v, %v; want 2 replayed, 0 failed", sum, err)
	}
}

// A flipped byte inside a whole record refuses the journal: no query is
// answered from damaged bytes, and the error names the record.
func TestReplayRefusesFlippedByte(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "drain.journal")
	drainQueued(t, journal, 2)
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-10] ^= 0x20 // inside the last record's model
	if err := os.WriteFile(journal, b, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, s, _, err := replayFresh(t, journal, "")
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("err = %v, want a refusal naming record 1", err)
	}
	if sum.Replayed != 0 || counter(t, s, "hmmer_serve_replayed_total") != 0 {
		t.Errorf("summary %+v: a query was answered from a damaged journal", sum)
	}
}

// The JSON-lines journal of an older hmmserved is refused by name, and
// so is a search journal given as the drain journal.
func TestReplayRefusesOtherFormats(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.jsonl")
	line := `{"time":"2026-01-01T00:00:00Z","tenant":"queued","db":"test","query":"servetest","fingerprint":"ff","model":"SE1NRVIzL2YK","reason":"queued-at-drain"}` + "\n"
	if err := os.WriteFile(old, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, _, _, err := replayFresh(t, old, "")
	if err == nil || !strings.Contains(err.Error(), "JSON-lines") || sum.Replayed != 0 {
		t.Errorf("older journal: %+v, %v; want a refusal naming the JSON-lines format", sum, err)
	}

	search := filepath.Join(dir, "run.ckpt")
	j, err := checkpoint.Create(search, checkpoint.Fingerprint{1}, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, _, _, err = replayFresh(t, search, "")
	var fpe *checkpoint.FingerprintError
	if !errors.As(err, &fpe) {
		t.Errorf("search journal: %v; want a *checkpoint.FingerprintError", err)
	}
}

// A record that does not decode, or carries no model, fails that record
// but not the replay.
func TestReplayToleratesBadRecords(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "drain.journal")
	j, err := checkpoint.Create(journal, drainJournalFP, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range [][]byte{
		{1, 0}, // truncated field length
		drainRecord{Tenant: "a", DB: "test", Query: "old"}.encode(), // no model
	} {
		if err := j.Append(checkpoint.Record{Seq: uint64(i), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	s, _ := newTestServer(t, nil)
	sum, err := s.ReplayDrainJournal(journal, "")
	if err != nil {
		t.Fatalf("ReplayDrainJournal: %v", err)
	}
	if sum.Replayed != 0 || sum.Failed != 2 {
		t.Errorf("summary %+v, want 0 replayed, 2 failed", sum)
	}
	if got := counter(t, s, "hmmer_serve_replay_failed_total"); got != 2 {
		t.Errorf("hmmer_serve_replay_failed_total = %v, want 2", got)
	}
}

// A drain whose journal cannot be opened journals nothing: each queued
// query is counted lost, its 503 says it was not journaled, and the
// drain does not log "0 lost".
func TestDrainUnopenableJournalCountsLost(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "missing", "drain.journal")
	sum, bodies, logs := drainQueued(t, journal, 1)
	if sum.Journaled != 0 || sum.Lost != 1 {
		t.Errorf("drain summary %+v, want 0 journaled, 1 lost", sum)
	}
	if !strings.Contains(bodies[0], "not journaled") {
		t.Errorf("503 body %q does not say the query was not journaled", bodies[0])
	}
	last := logs[len(logs)-1]
	if !strings.Contains(last, "drain complete") || !strings.Contains(last, " 1 lost") {
		t.Errorf("drain logged %q, want it to count 1 lost", last)
	}
}

// A drain journal the startup replay refused, an older hmmserved's JSON
// lines or a damaged record, is kept byte for byte: the next drain
// journals nothing into it, counts each refused query lost, and names
// the kept file in its log.
func TestDrainKeepsRefusedJournal(t *testing.T) {
	dir := t.TempDir()
	damaged := filepath.Join(dir, "damaged.journal")
	drainQueued(t, damaged, 1)
	b, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-10] ^= 0x20
	older := []byte(`{"tenant":"a","db":"test","query":"q","model":"SE1NRVIz"}` + "\n")
	for path, want := range map[string][]byte{damaged: b, filepath.Join(dir, "older.journal"): older} {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		sum, bodies, logs := drainQueued(t, path, 1)
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: drain left %d bytes (%v), want the %d it was refused with", filepath.Base(path), len(got), err, len(want))
		}
		if sum.Journaled != 0 || sum.Lost != 1 || !strings.Contains(bodies[0], "not journaled") {
			t.Errorf("%s: drain summary %+v, 503 %q; want 1 lost, not journaled", filepath.Base(path), sum, bodies[0])
		}
		if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, "keeping "+path) }) {
			t.Errorf("%s: no drain log line names the kept file: %q", filepath.Base(path), logs)
		}
	}
}

// A drain record's bytes are pinned: a journal one build drains is
// replayed by the next.
func TestDrainRecordPinned(t *testing.T) {
	rec := drainRecord{Tenant: "tenánt", DB: "", Query: "q1", Model: []byte("HMMER3/f\n//\n")}
	const want = "0700000074656ec3a16e7400000000020000007131484d4d4552332f660a2f2f0a"
	if got := hex.EncodeToString(rec.encode()); got != want {
		t.Fatalf("drain record encodes to\n%s\nwant\n%s", got, want)
	}
	golden, _ := hex.DecodeString(want)
	back, err := decodeDrainRecord(golden)
	if err != nil || back.Tenant != rec.Tenant || back.DB != "" || back.Query != rec.Query || !bytes.Equal(back.Model, rec.Model) {
		t.Fatalf("golden record decodes to %+v, %v", back, err)
	}
}

// The drain-record decoder reads a file from outside the process: it
// must never panic, and every payload it accepts must re-encode to the
// same bytes.
func FuzzDecodeDrainRecord(f *testing.F) {
	f.Add(drainRecord{Tenant: "t", DB: "test", Query: "q", Model: []byte("HMMER3/f\n//\n")}.encode())
	f.Add([]byte{1, 0})                                              // truncated length
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0, 'q'})         // overrunning length
	f.Add(drainRecord{Tenant: "t", DB: "test", Query: "q"}.encode()) // empty model
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeDrainRecord(p)
		if err != nil {
			return
		}
		if got := rec.encode(); !bytes.Equal(got, p) {
			t.Fatalf("accepted %x, re-encoded %x", p, got)
		}
	})
}

// The thundering herd: N concurrent identical cache-misses coalesce
// onto one execution — one profile build, one admission, N identical
// responses.
func TestConcurrentIdenticalMissesCoalesce(t *testing.T) {
	f := fixture(t)
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.MaxQueue = 4
	})

	// Hold the only slot so the leader parks in the admission queue
	// while the followers arrive and coalesce.
	if err := s.adm.acquire(context.Background(), "hog"); err != nil {
		t.Fatal(err)
	}
	const n = 4
	type reply struct {
		cache string
		code  int
		body  []byte
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := postQuery(t, ts, "db=test", f.modelText)
			replies <- reply{resp.Header.Get("X-Cache"), resp.StatusCode, body}
		}()
	}

	// Exactly one query queues (the leader); the rest coalesce.
	waitDepth(t, s.adm, 1)
	deadline := time.Now().Add(10 * time.Second)
	for counter(t, s, "hmmer_serve_search_coalesced_total") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v, want %d", counter(t, s, "hmmer_serve_search_coalesced_total"), n-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.adm.release()

	var miss, coalesced int
	for i := 0; i < n; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if !bytes.Equal(r.body, f.refTbl) {
			t.Error("coalesced response differs from reference")
		}
		switch r.cache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("unexpected X-Cache %q", r.cache)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Errorf("miss=%d coalesced=%d, want 1 and %d", miss, coalesced, n-1)
	}
	if builds := counter(t, s, "hmmer_serve_profile_builds_total"); builds != 1 {
		t.Errorf("profile builds = %v, want 1 (the herd built once)", builds)
	}
	if q := counter(t, s, "hmmer_serve_queries_total"); q != n {
		t.Errorf("queries_total = %v, want %d", q, n)
	}
}
