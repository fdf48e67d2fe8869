package checkpoint

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hmmer3gpu/internal/frame"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.ckpt")
}

func fp(b byte) Fingerprint {
	var f Fingerprint
	for i := range f {
		f[i] = b
	}
	return f
}

func mustAppend(t *testing.T, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(rec); err != nil {
		t.Fatalf("Append(%d): %v", rec.Seq, err)
	}
}

func rec(seq uint64, payload string) Record {
	return Record{Seq: seq, Offset: seq * 10, NumSeqs: 10, Residues: 1000 + seq, Payload: []byte(payload)}
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{rec(0, "alpha"), rec(1, ""), rec(2, "gamma-gamma")}
	for _, r := range want {
		mustAppend(t, j, r)
	}
	if st := j.Stats(); st.Journaled != 3 {
		t.Fatalf("Journaled = %d, want 3", st.Journaled)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Seq != w.Seq || r.Offset != w.Offset || r.NumSeqs != w.NumSeqs || r.Residues != w.Residues || string(r.Payload) != string(w.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
	}
	st := j2.Stats()
	if st.Replayed != 3 || st.DroppedTail != 0 {
		t.Fatalf("stats = %+v, want Replayed 3, DroppedTail 0", st)
	}
}

func TestResumeEmptyJournal(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, recs, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from empty journal", len(recs))
	}
}

func TestFingerprintMismatchRefusesResume(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "x"))
	j.Close()

	_, _, err = Resume(path, fp(2), Options{})
	var fe *FingerprintError
	if !errors.As(err, &fe) {
		t.Fatalf("Resume with wrong fingerprint: err = %v, want *FingerprintError", err)
	}
	if fe.Want != fp(2) || fe.Got != fp(1) {
		t.Fatalf("FingerprintError = %+v", fe)
	}
}

func TestModeMismatchRefusesResume(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{Mode: 1}) // written in fast mode
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "x"))
	j.Close()

	_, _, err = Resume(path, fp(1), Options{Mode: 0}) // resumed in cycles mode
	var me *ModeMismatchError
	if !errors.As(err, &me) {
		t.Fatalf("Resume across sim modes: err = %v, want *ModeMismatchError", err)
	}
	if me.Want != 0 || me.Got != 1 {
		t.Fatalf("ModeMismatchError = %+v, want {Want:0 Got:1}", me)
	}
	for _, frag := range []string{"fast", "cycles", "refusing to resume"} {
		if !strings.Contains(me.Error(), frag) {
			t.Errorf("error %q does not mention %q", me.Error(), frag)
		}
	}

	// Matching mode resumes fine.
	j2, recs, err := Resume(path, fp(1), Options{Mode: 1})
	if err != nil {
		t.Fatalf("Resume with matching mode: %v", err)
	}
	defer j2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}

func TestVersionMismatchRefusesResume(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)-1] = 0x7f // forge a future format version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Resume(path, fp(1), Options{})
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Resume with forged version: err = %v, want *VersionError", err)
	}
	if ve.Got != 0x7f {
		t.Fatalf("VersionError = %+v, want Got 0x7f", ve)
	}
}

// TestTornTailDropped truncates the file mid-record at several
// depths: replay must return every intact record, count one dropped
// tail, and leave the file appendable from a clean frame boundary.
func TestTornTailDropped(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "first-record"))
	mustAppend(t, j, rec(1, "second-record"))
	whole := j.Size()
	mustAppend(t, j, rec(2, "third-record-gets-torn"))
	torn := j.Size()
	j.Close()

	// Tear at every byte depth of the final record: frame header cut,
	// body cut, single trailing byte.
	for _, keep := range []int64{whole + 1, whole + frame.HeaderSize - 1, whole + frame.HeaderSize + 3, torn - 1} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(t.TempDir(), "torn.ckpt")
		if err := os.WriteFile(cut, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := Resume(cut, fp(1), Options{})
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if len(recs) != 2 {
			t.Fatalf("keep=%d: replayed %d records, want 2", keep, len(recs))
		}
		if st := j2.Stats(); st.DroppedTail != 1 {
			t.Fatalf("keep=%d: DroppedTail = %d, want 1", keep, st.DroppedTail)
		}
		// The journal must be appendable after the tear: the torn bytes
		// were truncated away.
		mustAppend(t, j2, rec(2, "third-record-retried"))
		j2.Close()
		j3, recs, err := Resume(cut, fp(1), Options{})
		if err != nil {
			t.Fatalf("keep=%d reopen: %v", keep, err)
		}
		if len(recs) != 3 || string(recs[2].Payload) != "third-record-retried" {
			t.Fatalf("keep=%d reopen: got %d records", keep, len(recs))
		}
		j3.Close()
	}
}

// TestFlippedBitRejected flips one payload bit inside a non-tail
// record: replay must fail with a CorruptError, not silently merge or
// silently drop.
func TestFlippedBitRejected(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "victim-payload"))
	mustAppend(t, j, rec(1, "follower"))
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frame.HeaderSize+bodyFixedSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Resume(path, fp(1), Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Resume with flipped bit: err = %v, want *CorruptError", err)
	}
	if ce.Index != 0 {
		t.Fatalf("CorruptError.Index = %d, want 0", ce.Index)
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "x"))
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp a huge frame length; the body bytes that follow are intact,
	// so this is structural damage, not a torn tail.
	data[headerSize] = 0xff
	data[headerSize+1] = 0xff
	data[headerSize+2] = 0xff
	data[headerSize+3] = 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Resume(path, fp(1), Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestNotAJournal(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(">seq1\nACDEFGHIKLMNPQRSTVWY\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, fp(1), Options{}); err == nil {
		t.Fatal("Resume accepted a FASTA file as a journal")
	}
}

// TestCrashWindows drives each injection window and checks exactly
// what survives.
func TestCrashWindows(t *testing.T) {
	cases := []struct {
		window      Window
		survives    int // records recovered on resume
		droppedTail int
	}{
		// Crash before append 1 writes anything: only record 0 is on
		// disk, cleanly.
		{WindowBeforeAppend, 1, 0},
		// Crash after append 1's write but before its fsync: the torn
		// prefix is dropped on replay.
		{WindowAfterAppend, 1, 1},
		// Crash after append 1's fsync: record 1 is durable and must be
		// recovered even though the process died before the merge-ack.
		{WindowAfterSync, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.window.String(), func(t *testing.T) {
			path := tmpJournal(t)
			j, err := Create(path, fp(1), Options{Crash: CrashAfter(1, tc.window)})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, rec(0, "safe"))
			err = j.Append(rec(1, "doomed-record-payload"))
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("Append at crash point: err = %v, want ErrInjectedCrash", err)
			}
			// The process is "dead": further appends fail too.
			if err := j.Append(rec(2, "after")); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("Append after crash: err = %v, want ErrInjectedCrash", err)
			}
			j.Close()

			j2, recs, err := Resume(path, fp(1), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(recs) != tc.survives {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.survives)
			}
			if st := j2.Stats(); st.DroppedTail != tc.droppedTail {
				t.Fatalf("DroppedTail = %d, want %d", st.DroppedTail, tc.droppedTail)
			}
		})
	}
}

// TestBatchedSyncLosesUnsyncedTail checks the SyncEvery>1 trade-off:
// a crash loses the records since the last fsync (they re-execute on
// resume) but never yields a corrupt journal.
func TestBatchedSyncLosesUnsyncedTail(t *testing.T) {
	path := tmpJournal(t)
	// Sync every 3: appends 0,1,2 sync; 3,4 sit in the page cache when
	// the crash fires at append 5 (before-append keeps no torn prefix).
	j, err := Create(path, fp(1), Options{SyncEvery: 3, Crash: CrashAfter(5, WindowBeforeAppend)})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		mustAppend(t, j, rec(i, "payload"))
	}
	if err := j.Append(rec(5, "payload")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	j.Close()

	j2, recs, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3 (unsynced tail lost)", len(recs))
	}
}

func TestResumeAfterResumeConverges(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{Crash: CrashAfter(2, WindowAfterAppend)})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "a"))
	mustAppend(t, j, rec(1, "b"))
	if err := j.Append(rec(2, "c")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("first crash: %v", err)
	}
	j.Close()

	// First resume crashes again on its own first append.
	j2, recs, err := Resume(path, fp(1), Options{Crash: CrashAfter(0, WindowAfterAppend)})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("first resume recovered %d, want 2", len(recs))
	}
	if err := j2.Append(rec(2, "c")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("second crash: %v", err)
	}
	j2.Close()

	// Second resume completes.
	j3, recs, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("second resume recovered %d, want 2", len(recs))
	}
	mustAppend(t, j3, rec(2, "c"))
	mustAppend(t, j3, rec(3, "d"))
	j3.Close()

	j4, recs, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if len(recs) != 4 {
		t.Fatalf("final journal holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d", i, r.Seq)
		}
	}
}

func TestSyncEveryCadence(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		mustAppend(t, j, rec(i, "p"))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Header sync + 2 cadence syncs (after appends 3 and 7) + close
	// sync for the final 2 pending.
	if st := j.Stats(); st.Syncs != 4 {
		t.Fatalf("Syncs = %d, want 4", st.Syncs)
	}
}

// A journal's bytes are pinned: the header from Create and two
// appended records, so journals written by one build resume under the
// next.
func TestJournalFormatPinned(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(0xa5), Options{Mode: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "first"))
	mustAppend(t, j, Record{Seq: 1 << 40, Offset: 7, NumSeqs: 3, Residues: 0xfedcba9876543210, Payload: []byte("sécond")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "484d4d33475055434b505402a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a50125000000f190b032000000000000000000000000000000000a00000000000000e803000000000000666972737427000000deb31cf80000000000010000070000000000000003000000000000001032547698badcfe73c3a9636f6e64"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("journal encodes to\n%s\nwant\n%s", got, want)
	}
	j, recs, err := Resume(path, fp(0xa5), Options{Mode: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(recs) != 2 || recs[1].Seq != 1<<40 || recs[1].Residues != 0xfedcba9876543210 || string(recs[1].Payload) != "sécond" {
		t.Fatalf("golden journal resumes to %+v", recs)
	}
}
