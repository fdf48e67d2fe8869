package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
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

	// A header declaring the wire's largest body, then nothing: torn,
	// having held no more than the first chunk.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hdr := binary.LittleEndian.AppendUint32(nil, wire.Max)
	if _, err := wire.Read(bytes.NewReader(append(hdr, 0, 0, 0, 0))); err != io.ErrUnexpectedEOF {
		t.Fatalf("Read of a bodiless MaxFrame header: err %v, want io.ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Errorf("Read of a bodiless MaxFrame header allocated %d bytes, want < 4 MiB", d)
	}

	// A frame just over the first chunk takes the growth path, whole
	// or torn.
	big := Append(nil, bytes.Repeat([]byte{0x5a}, firstChunk+1))
	if body, err := journal.Read(bytes.NewReader(big)); err != nil || len(body) != firstChunk+1 {
		t.Fatalf("Read of a %d-byte body: %d bytes, err %v", firstChunk+1, len(body), err)
	}
	if _, err := journal.Read(bytes.NewReader(big[:len(big)-1])); err != io.ErrUnexpectedEOF {
		t.Fatalf("Read of a torn %d-byte body: err %v, want io.ErrUnexpectedEOF", firstChunk+1, err)
	}
}

// Read makes one allocation for a body of up to smallBody bytes (every
// control frame and short record, on the wire and in the journal), and
// two for a longer one up to firstChunk: the header's buffer, then one
// of the body's size. (Past firstChunk each growth adds one; a race
// build counts one more there, so that case is not pinned.)
func TestReadAllocations(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {9, 1}, {43, 1}, {smallBody, 1},
		{smallBody + 1, 2}, {firstChunk, 2},
	} {
		raw := Append(nil, bytes.Repeat([]byte{0x5a}, c.n))
		rd := bytes.NewReader(raw)
		for _, l := range []Limits{wire, journal} {
			if uint32(c.n) < l.Min {
				continue
			}
			if body, err := l.Read(rd); err != nil || len(body) != c.n {
				t.Fatalf("limits %v: Read of a %d-byte body: %d bytes, err %v", l, c.n, len(body), err)
			}
			got := testing.AllocsPerRun(5, func() { rd.Reset(raw); l.Read(rd) })
			if got != c.want {
				t.Errorf("limits %v: Read of a %d-byte body made %v allocations, want %v", l, c.n, got, c.want)
			}
			rd.Reset(raw)
		}
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
		for _, l := range []Limits{wire, journal} {
			body, rest, err := l.Decode(data)
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

// The reader's bounds rule: a read that would run past the body takes
// nothing and marks it short, every later read then takes nothing, and
// Err reports a short body or unread bytes.
func TestReaderBounds(t *testing.T) {
	body := binary.LittleEndian.AppendUint32([]byte{7}, 0xdeadbeef)
	body = append(binary.LittleEndian.AppendUint16(body, 3), "abc!"...)
	r := NewReader(body)
	if r.U8() != 7 || r.U32() != 0xdeadbeef {
		t.Fatal("fixed fields misread")
	}
	name := r.Bytes(uint64(r.U16()))
	if string(name) != "abc" || cap(name) != 3 {
		t.Fatalf("Bytes = %q with cap %d, want \"abc\" with cap 3", name, cap(name))
	}
	if err := r.Err(); err == nil || err.Error() != "1 trailing bytes" {
		t.Fatalf("Err with a byte unread = %v", err)
	}
	if r.U16() != 0 || r.U8() != 0 || r.Rest() != nil {
		t.Fatal("reads after a short read took bytes")
	}
	if err := r.Err(); err == nil || err.Error() != "field at byte 10 runs past the 11-byte body" {
		t.Fatalf("Err after a short read = %v", err)
	}
	whole := NewReader(body)
	if whole.Bytes(1<<63) != nil || whole.Len() != len(body) {
		t.Fatal("an overlong length took bytes")
	}
	if r := NewReader(body); len(r.Rest()) != len(body) || r.Err() != nil {
		t.Fatal("Rest did not read the whole body")
	}
}
