package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"

	"hmmer3gpu/internal/checkpoint"
	"hmmer3gpu/internal/frame"
)

// ReplaySummary reports what a drain-journal replay did.
type ReplaySummary struct {
	// Replayed is how many journaled queries were re-admitted and
	// answered 200.
	Replayed int
	// Failed is how many could not be replayed (undecodable record or
	// non-200 response); each is logged.
	Failed int
}

// drainJournalFP is the drain journal's header fingerprint, a fixed
// digest naming the format, so a search journal passed as
// -drain-journal (or the reverse) is refused with a FingerprintError.
var drainJournalFP = checkpoint.Fingerprint(sha256.Sum256([]byte("hmmserved drain journal")))

// drainRecord is one query refused during drain, with the raw model
// upload replay re-POSTs: the payload of a checkpoint record whose Seq
// is the refusal's ordinal.
type drainRecord struct {
	Tenant, DB, Query string
	Model             []byte
}

// encode writes tenant, database and query name, each after its u32
// little-endian length, then the model bytes to the end.
func (r drainRecord) encode() []byte {
	b := make([]byte, 0, 12+len(r.Tenant)+len(r.DB)+len(r.Query)+len(r.Model))
	for _, f := range []string{r.Tenant, r.DB, r.Query} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return append(b, r.Model...)
}

// decodeDrainRecord is encode's inverse. It refuses a length that runs
// past the payload and a record with no model.
func decodeDrainRecord(p []byte) (drainRecord, error) {
	r := frame.NewReader(p)
	var rec drainRecord
	for _, f := range []*string{&rec.Tenant, &rec.DB, &rec.Query} {
		*f = string(r.Bytes(uint64(r.U32())))
	}
	rec.Model = r.Rest()
	if err := r.Err(); err != nil {
		return drainRecord{}, err
	}
	if len(rec.Model) == 0 {
		return drainRecord{}, errors.New("no model payload")
	}
	return rec, nil
}

// ReplayDrainJournal re-admits every query journaled by a previous
// process's drain, before this one advertises readiness: each record's
// model upload is re-POSTed through the server's own /search handler —
// the normal admission, cache, and execution path — so the replayed
// response is byte-identical to what the dead process would have
// returned. Call it after New and before MarkReady; a missing journal
// is a clean no-op (first boot). When outDir is non-empty, each 200
// response body is written to outDir/replay-<seq>.tbl for auditing.
//
// checkpoint.Resume drops a torn last record (a drain killed
// mid-append); a damaged record, another kind of journal or an older
// hmmserved's JSON lines refuse the whole file, which Drain then keeps
// as found rather than journal into it. A record that fails
// to replay is counted, logged and exported as
// hmmer_serve_replay_failed_total, and the rest still run. Once every
// record is answered the journal is settled empty, durably, so a
// process killed after its replay replays nothing on its next start.
func (s *Server) ReplayDrainJournal(path, outDir string) (ReplaySummary, error) {
	var sum ReplaySummary
	if !checkpoint.Exists(path) {
		return sum, nil
	}
	j, recs, err := checkpoint.Resume(path, drainJournalFP, checkpoint.Options{})
	if err != nil {
		s.stateMu.Lock()
		s.refused = path
		s.stateMu.Unlock()
		if b, _ := os.ReadFile(path); bytes.HasPrefix(b, []byte("{")) {
			return sum, fmt.Errorf("serve: %s is a JSON-lines drain journal from an older hmmserved; this build reads only checkpoint-format drain journals", path)
		}
		return sum, fmt.Errorf("serve: drain journal %s refused: %w", path, err)
	}
	j.Close()
	// Materialise both counters at zero so a clean replay still
	// exports hmmer_serve_replay_failed_total 0 (CI pins it).
	s.reg.AddInt("hmmer_serve_replayed_total", 0)
	s.reg.AddInt("hmmer_serve_replay_failed_total", 0)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return sum, fmt.Errorf("serve: replay output: %w", err)
		}
	}

	for _, r := range recs {
		fail := func(format string, args ...any) {
			sum.Failed++
			s.reg.AddInt("hmmer_serve_replay_failed_total", 1)
			s.cfg.Logf("replay record %d: %s", r.Seq, fmt.Sprintf(format, args...))
		}
		rec, err := decodeDrainRecord(r.Payload)
		if err != nil {
			fail("bad record: %v", err)
			continue
		}
		status, body, err := s.selfPost(rec)
		if err != nil {
			fail("query %q: %v", rec.Query, err)
			continue
		}
		if status != http.StatusOK {
			fail("query %q re-admitted with status %d: %s", rec.Query, status, bytes.TrimSpace(body))
			continue
		}
		sum.Replayed++
		s.reg.AddInt("hmmer_serve_replayed_total", 1)
		if outDir != "" {
			out := filepath.Join(outDir, fmt.Sprintf("replay-%d.tbl", r.Seq))
			if err := os.WriteFile(out, body, 0o644); err != nil {
				return sum, fmt.Errorf("serve: replay output: %w", err)
			}
		}
	}
	settled, err := checkpoint.Create(path, drainJournalFP, checkpoint.Options{})
	if err == nil {
		err = settled.Close()
	}
	if err != nil {
		return sum, fmt.Errorf("serve: settling drain journal: %w", err)
	}
	s.cfg.Logf("drain-journal replay: %d replayed, %d failed", sum.Replayed, sum.Failed)
	return sum, nil
}

// selfPost drives one journaled query through the server's own mux —
// the identical code path an external client hits.
func (s *Server) selfPost(rec drainRecord) (int, []byte, error) {
	u := "/search?db=" + url.QueryEscape(rec.DB) + "&tenant=" + url.QueryEscape(rec.Tenant)
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(rec.Model))
	if err != nil {
		return 0, nil, err
	}
	rw := &memResponse{header: make(http.Header), code: http.StatusOK}
	s.mux.ServeHTTP(rw, req)
	return rw.code, rw.body.Bytes(), nil
}

// memResponse is the minimal in-memory http.ResponseWriter the replay
// path needs.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }
