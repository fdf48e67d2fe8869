package checkpoint

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hmmer3gpu/internal/frame"
)

// settleOutcome is everything a resumed appender, or the refusal
// before it, reports about the journal it settled.
type settleOutcome struct {
	Recs        []Record
	Replayed    int
	DroppedTail int
	Size        int64
	ErrType     string
	Err         string
	// Early marks a refusal by the standby's header check, before
	// Resume ran.
	Early bool
}

// TestResumeAndTakeOverSettleAlike holds a hot standby's takeover to
// Resume. While it waits for the lease, the standby checks only the
// journal header (OpenFollower, then Close); once it holds the lease,
// it resumes. On the same bytes that sequence must return what Resume
// alone does: the same records, counters, final file size and typed
// error. So the header check refuses early exactly the journals
// Resume would refuse for their header, and nothing Resume accepts.
func TestResumeAndTakeOverSettleAlike(t *testing.T) {
	const mode = 1
	// intact is a header plus two records; frame1 is the second
	// record's offset.
	build := func(t *testing.T) []byte {
		path := filepath.Join(t.TempDir(), "src.ckpt")
		j, err := Create(path, fp(1), Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, rec(0, "alpha"))
		mustAppend(t, j, rec(1, "bravo-bravo"))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	intact := build(t)
	frame1 := int64(headerSize + frame.HeaderSize + bodyFixedSize + len("alpha"))

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantErr string
		wantN   int
		wantTor int
	}{
		{"header only", func(b []byte) []byte { return b[:headerSize] }, "", 0, 0},
		{"intact records", func(b []byte) []byte { return b }, "", 2, 0},
		{"torn frame header", func(b []byte) []byte { return b[:frame1+frame.HeaderSize/2] }, "", 1, 1},
		{"torn body", func(b []byte) []byte { return b[:len(b)-3] }, "", 1, 1},
		{"bad crc", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "*checkpoint.CorruptError", 0, 0},
		{"implausible length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[frame1:], 3)
			return b
		}, "*checkpoint.CorruptError", 0, 0},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "*errors.errorString", 0, 0},
		{"version mismatch", func(b []byte) []byte { b[len(magic)-1]++; return b }, "*checkpoint.VersionError", 0, 0},
		{"fingerprint mismatch", func(b []byte) []byte { b[len(magic)] ^= 1; return b }, "*checkpoint.FingerprintError", 0, 0},
		{"mode mismatch", func(b []byte) []byte { b[len(magic)+32] = 0; return b }, "*checkpoint.ModeMismatchError", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := tc.mutate(append([]byte(nil), intact...))
			write := func(name string) string {
				path := filepath.Join(t.TempDir(), name)
				if err := os.WriteFile(path, file, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			outcome := func(path string, j *Journal, recs []Record, err error) settleOutcome {
				var o settleOutcome
				if err != nil {
					o.ErrType, o.Err = fmt.Sprintf("%T", err), err.Error()
					return o
				}
				st := j.Stats()
				o.Recs, o.Replayed, o.DroppedTail = recs, st.Replayed, st.DroppedTail
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				o.Size = fi.Size()
				return o
			}

			rpath := write("resume.ckpt")
			j, recs, err := Resume(rpath, fp(1), Options{Mode: mode})
			resumed := outcome(rpath, j, recs, err)

			tpath := write("takeover.ckpt")
			fo, err := OpenFollower(tpath, fp(1), FollowerOptions{Mode: mode})
			var took settleOutcome
			if err != nil {
				took = outcome(tpath, nil, nil, err)
				took.Early = true
			} else {
				fo.Close()
				j, recs, err := Resume(tpath, fp(1), Options{Mode: mode})
				took = outcome(tpath, j, recs, err)
			}

			early := took.Early
			took.Early = false
			if !reflect.DeepEqual(resumed, took) {
				t.Fatalf("Resume and the takeover disagree:\nresume   %+v\ntakeover %+v", resumed, took)
			}
			if header := tc.wantErr != "" && tc.wantErr != "*checkpoint.CorruptError"; early != header {
				t.Fatalf("header check refused: %v, want %v", early, header)
			}
			if resumed.ErrType != tc.wantErr {
				t.Fatalf("error type %q, want %q", resumed.ErrType, tc.wantErr)
			}
			if tc.wantErr != "" {
				return
			}
			if len(resumed.Recs) != tc.wantN || resumed.Replayed != tc.wantN || resumed.DroppedTail != tc.wantTor {
				t.Fatalf("settled %d records (replayed %d, torn %d), want %d (torn %d)",
					len(resumed.Recs), resumed.Replayed, resumed.DroppedTail, tc.wantN, tc.wantTor)
			}
			wantSize := int64(headerSize)
			if tc.wantN == 1 {
				wantSize = frame1
			} else if tc.wantN == 2 {
				wantSize = int64(len(intact))
			}
			if resumed.Size != wantSize {
				t.Fatalf("settled size %d, want %d", resumed.Size, wantSize)
			}
		})
	}
}
