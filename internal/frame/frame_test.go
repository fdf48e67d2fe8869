package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// The two uses in the tree: the cluster wire (a type byte, then at
// most 1<<28 bytes) and the checkpoint journal (a 32-byte record
// prefix, then at most 1<<30 bytes).
var (
	wire    = Limits{Min: 1, Max: 1 << 28}
	journal = Limits{Min: 32, Max: 1 << 30}
)

// Every cut inside a frame is torn, and every flipped byte is caught:
// a length byte as corrupt or torn, a checksum or body byte as corrupt.
func TestTornAndCorrupt(t *testing.T) {
	raw := Append(nil, bytes.Repeat([]byte("journal-body"), 4))
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := journal.Decode(raw[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("Decode cut at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if _, err := journal.Read(bytes.NewReader(raw[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("Read cut at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	var ce *CorruptError
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		_, _, err := journal.Decode(bad)
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		if i >= 4 && !errors.As(err, &ce) {
			t.Fatalf("flipping byte %d: err %v, want *CorruptError", i, err)
		}
	}
	short := Append(nil, []byte("under the journal's minimum"))
	if _, _, err := journal.Decode(short); !errors.As(err, &ce) {
		t.Fatalf("body under Min: err %v, want *CorruptError", err)
	}
}

// FuzzDecode holds the slice and stream readers to one verdict on
// arbitrary bytes under both uses' limits, and a frame either accepts
// to re-encode to the bytes it consumed.
func FuzzDecode(f *testing.F) {
	f.Add(Append(nil, []byte{1, 2, 3}))
	f.Add(Append(nil, bytes.Repeat([]byte{0xab}, 32)))
	f.Add(Append(Append(nil, bytes.Repeat([]byte{1}, 40)), []byte("tail")))
	rec := make([]byte, 32, 40)
	binary.LittleEndian.PutUint64(rec[0:8], 3)
	binary.LittleEndian.PutUint64(rec[16:24], 10)
	f.Add(Append(nil, append(rec, "payload!"...)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Read allocates the declared length before it finds the stream
		// short; keep the fuzzer's memory small.
		huge := len(data) >= HeaderSize && binary.LittleEndian.Uint32(data) > uint32(len(data))
		for _, l := range []Limits{wire, journal} {
			body, rest, err := l.Decode(data)
			if huge {
				continue
			}
			rbody, rerr := l.Read(bytes.NewReader(data))
			if len(data) == 0 && rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			if (err == nil) != (rerr == nil) || errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(rerr, io.ErrUnexpectedEOF) {
				t.Fatalf("limits %v: Decode err %v, Read err %v", l, err, rerr)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(body, rbody) {
				t.Fatalf("limits %v: Decode and Read bodies differ", l)
			}
			if n := uint32(len(body)); n < l.Min || n > l.Max {
				t.Fatalf("limits %v: accepted a %d-byte body", l, n)
			}
			if !bytes.Equal(Append(nil, body), data[:len(data)-len(rest)]) {
				t.Fatalf("limits %v: re-encode disagrees with the consumed bytes", l)
			}
		}
	})
}
