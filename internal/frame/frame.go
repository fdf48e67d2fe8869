// Package frame is the one framing of the cluster wire protocol and
// the checkpoint journal: u32 body length | u32 CRC-32 (IEEE) of body
// | body, little-endian. Each use bounds the body length (Limits), so
// a corrupt or hostile length cannot force a large allocation. Bytes
// that end before the frame does are torn (io.ErrUnexpectedEOF; io.EOF
// from Read when no byte of the frame arrived); an out-of-bounds
// length or a checksum mismatch is a *CorruptError.
//
// Reader is the one field reader under every binary body: wire
// messages, journal records and their headers, result payloads and
// drain records. Its bounds rule is the tree's only one for input from
// remote workers, from disk and from a restarted server: a read that
// would run past the end of the body takes nothing and marks the body
// short, so a parser makes its reads and checks Err once.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderSize is the length and checksum prefix of every frame.
const HeaderSize = 8

// firstChunk is the most Read allocates for a body before its bytes
// arrive; a longer body grows the buffer as they do.
const firstChunk = 1 << 20

// smallBody is the longest body Read serves from the buffer it reads
// the header into, so a control frame (hello, ack, ping, goodbye, a
// short exec error) or a short journal record costs one allocation.
const smallBody = 512

// Limits is the inclusive range of body lengths one use accepts.
type Limits struct{ Min, Max uint32 }

// CorruptError reports a frame that is wrong rather than incomplete.
// A torn write cannot produce one: it never leaves a full-length body.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "frame: " + e.Reason }

// Append appends body, framed, to dst. Writers send the result in one
// Write, so readers and fault injectors see each frame whole.
func Append(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// Decode parses the frame at the front of data and returns its body,
// which aliases data, and the bytes after the frame.
func (l Limits) Decode(data []byte) (body, rest []byte, err error) {
	if len(data) < HeaderSize {
		return nil, nil, io.ErrUnexpectedEOF
	}
	n, err := l.length(data)
	if err != nil {
		return nil, nil, err
	}
	if len(data)-HeaderSize < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	body, rest = data[HeaderSize:HeaderSize+n], data[HeaderSize+n:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, &CorruptError{"checksum mismatch"}
	}
	return body, rest, nil
}

// Read reads one frame from r and returns its body. The header is read
// into a buffer with room for smallBody more bytes; a longer body of
// at most firstChunk bytes is read into one buffer of its size, and a
// header that declares more and then stalls holds no more than
// firstChunk.
func (l Limits) Read(r io.Reader) ([]byte, error) {
	buf := make([]byte, HeaderSize, HeaderSize+smallBody)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n, err := l.length(buf)
	if err != nil {
		return nil, err
	}
	end := HeaderSize + n
	if end > cap(buf) {
		buf = append(make([]byte, 0, HeaderSize+min(n, firstChunk)), buf...)
	}
	for len(buf) < end {
		buf = slices.Grow(buf, min(len(buf), end-len(buf)))
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), end)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	body, _, err := l.Decode(buf)
	return body, err
}

// length returns the body length hdr declares, checked against l.
func (l Limits) length(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < l.Min || n > l.Max {
		return 0, &CorruptError{fmt.Sprintf("implausible frame length %d", n)}
	}
	return int(n), nil
}

// Reader reads little-endian fields from the front of a body. A read
// that would run past the end takes nothing, returns zero or nil, and
// marks the body short; every later read then does the same.
type Reader struct {
	b     []byte
	off   int
	short bool
}

// NewReader returns a Reader at the start of body.
func NewReader(body []byte) *Reader { return &Reader{b: body} }

// Bytes returns the next n bytes, aliasing the body; appending to
// them never overwrites the bytes after them.
func (r *Reader) Bytes(n uint64) []byte {
	if r.short || n > uint64(len(r.b)-r.off) {
		r.short = true
		return nil
	}
	end := r.off + int(n)
	p := r.b[r.off:end:end]
	r.off = end
	return p
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte { return r.Bytes(uint64(r.Len())) }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// U8, U16, U32 and U64 read the next field of that width.
func (r *Reader) U8() byte    { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// fixed returns the next n bytes, or n zero bytes when fewer remain.
func (r *Reader) fixed(n uint64) []byte {
	if p := r.Bytes(n); p != nil {
		return p
	}
	return make([]byte, n)
}

// Err reports whether the body parsed whole: nil when every read fit
// and no byte is left unread.
func (r *Reader) Err() error {
	switch {
	case r.short:
		return fmt.Errorf("field at byte %d runs past the %d-byte body", r.off, len(r.b))
	case r.Len() > 0:
		return fmt.Errorf("%d trailing bytes", r.Len())
	}
	return nil
}
