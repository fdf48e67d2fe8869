package checkpoint

import (
	"errors"
	"os"
	"testing"

	"hmmer3gpu/internal/frame"
)

func mustPoll(t *testing.T, fo *Follower) []Record {
	t.Helper()
	recs, err := fo.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	return recs
}

// TestFollowLiveAppends tails a journal while its appender is alive:
// each Poll returns exactly the records appended since the last one.
func TestFollowLiveAppends(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	fo, err := OpenFollower(path, fp(1), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	if got := mustPoll(t, fo); len(got) != 0 {
		t.Fatalf("fresh journal: Poll returned %d records", len(got))
	}

	mustAppend(t, j, rec(0, "alpha"))
	mustAppend(t, j, rec(1, "beta"))
	got := mustPoll(t, fo)
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 || string(got[1].Payload) != "beta" {
		t.Fatalf("Poll after two appends = %+v", got)
	}
	// No re-delivery.
	if got := mustPoll(t, fo); len(got) != 0 {
		t.Fatalf("idle Poll returned %d records", len(got))
	}
	mustAppend(t, j, rec(2, "gamma"))
	got = mustPoll(t, fo)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("Poll after third append = %+v", got)
	}
}

// TestFollowUnsyncedAppendsVisible pins the fsync-race semantics: with
// SyncEvery>1 the appender's records sit in the page cache unsynced,
// and the follower (same page cache) still sees them — "newly fsynced"
// is a lower bound on what Poll returns, not an upper one.
func TestFollowUnsyncedAppendsVisible(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fo, err := OpenFollower(path, fp(1), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	mustAppend(t, j, rec(0, "unsynced"))
	if st := j.Stats(); st.Syncs != 1 { // only the header sync so far
		t.Fatalf("Syncs = %d, want 1 (append must still be pending)", st.Syncs)
	}
	got := mustPoll(t, fo)
	if len(got) != 1 || string(got[0].Payload) != "unsynced" {
		t.Fatalf("Poll = %+v, want the unsynced record", got)
	}
}

// TestFollowMidRecordTail tails while the appender is mid-record: the
// torn bytes at the frontier are pending, not an error, and once the
// remaining bytes land the record is delivered.
func TestFollowMidRecordTail(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "complete"))
	j.Close()

	// Reconstruct the full frame of record 1 by appending it to a copy,
	// then land it on the real file byte range by byte range.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j2, rec(1, "arrives-in-pieces"))
	j2.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	framed := whole[len(full):]
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	fo, err := OpenFollower(path, fp(1), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	if got := mustPoll(t, fo); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("initial Poll = %+v, want record 0", got)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Land the frame in three slices: cut inside the frame header, then
	// inside the body, then the rest. After each partial write the
	// frontier must hold (no records, no error).
	cuts := []int{frame.HeaderSize - 3, frame.HeaderSize + 5, len(framed)}
	prev := 0
	for _, cut := range cuts[:len(cuts)-1] {
		if _, err := f.Write(framed[prev:cut]); err != nil {
			t.Fatal(err)
		}
		prev = cut
		if got := mustPoll(t, fo); len(got) != 0 {
			t.Fatalf("Poll mid-write (at %d bytes) returned %d records", cut, len(got))
		}
	}
	if _, err := f.Write(framed[prev:]); err != nil {
		t.Fatal(err)
	}
	got := mustPoll(t, fo)
	if len(got) != 1 || got[0].Seq != 1 || string(got[0].Payload) != "arrives-in-pieces" {
		t.Fatalf("Poll after frame completion = %+v", got)
	}
}

// TestFollowTornTailOverwritten models a primary that dies mid-append
// (torn tail on disk), resumes (Resume truncates the torn bytes), and
// re-appends: the follower polls across all three states and must end
// up with exactly the committed records.
func TestFollowTornTailOverwritten(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{Crash: CrashAfter(1, WindowAfterAppend)})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := OpenFollower(path, fp(1), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	mustAppend(t, j, rec(0, "durable"))
	if got := mustPoll(t, fo); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("Poll = %+v, want record 0", got)
	}
	// The injected crash leaves half of record 1's frame on disk.
	if err := j.Append(rec(1, "torn-on-disk-payload")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want ErrInjectedCrash", err)
	}
	j.Close()
	if got := mustPoll(t, fo); len(got) != 0 {
		t.Fatalf("Poll over torn tail returned %d records", len(got))
	}

	// Primary restarts: Resume truncates the torn tail and re-appends a
	// different record over the same byte range.
	j2, recs, err := Resume(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("Resume recovered %d records, want 1", len(recs))
	}
	mustAppend(t, j2, rec(1, "retried-after-restart"))
	j2.Close()

	got := mustPoll(t, fo)
	if len(got) != 1 || got[0].Seq != 1 || string(got[0].Payload) != "retried-after-restart" {
		t.Fatalf("Poll after overwrite = %+v, want the retried record", got)
	}
}

func TestFollowerHeaderValidation(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{Mode: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	var fe *FingerprintError
	if _, err := OpenFollower(path, fp(2), FollowerOptions{Mode: 1}); !errors.As(err, &fe) {
		t.Fatalf("wrong fingerprint: err = %v, want *FingerprintError", err)
	}
	var me *ModeMismatchError
	if _, err := OpenFollower(path, fp(1), FollowerOptions{Mode: 0}); !errors.As(err, &me) {
		t.Fatalf("wrong mode: err = %v, want *ModeMismatchError", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)-1] = 0x7f
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if _, err := OpenFollower(path, fp(1), FollowerOptions{Mode: 1}); !errors.As(err, &ve) {
		t.Fatalf("forged version: err = %v, want *VersionError", err)
	}
}

// TestFollowerShrinkDetected: truncating the journal below the
// frontier (file replaced out from under the reader) is a hard error,
// not a silent reset.
func TestFollowerShrinkDetected(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fp(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, rec(0, "soon-gone"))
	j.Close()

	fo, err := OpenFollower(path, fp(1), FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()
	if got := mustPoll(t, fo); len(got) != 1 {
		t.Fatalf("Poll = %d records, want 1", len(got))
	}
	if err := os.Truncate(path, int64(headerSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := fo.Poll(); err == nil {
		t.Fatal("Poll over a shrunk journal succeeded")
	}
}
