// Package cluster implements the two-level scheduler of ROADMAP item
// 4: a coordinator that shards the residue-budgeted batch stream of a
// streamed search across worker processes, each worker running the
// in-process multi-device scheduler. Robustness is the design center —
// worker loss, network failure, and coordinator crash are first-class,
// survivable events:
//
//   - Workers speak a length-prefixed, CRC-framed (package frame),
//     versioned wire protocol over localhost TCP (or an in-process net.Pipe); the
//     handshake carries the run's config fingerprint and simulator
//     mode, so a mismatched worker is rejected at connect, never after
//     it has computed a batch under the wrong configuration.
//   - Per-worker heartbeats and deadlines (on an injectable clock)
//     detect loss; a lost worker's in-flight batches requeue
//     exactly-once under the coordinator's commit-token discipline,
//     and late results from a presumed-dead worker are fenced by
//     (seq, epoch) and dropped, never double-merged.
//   - Repeatedly failing workers are quarantined by a circuit breaker;
//     with every worker gone the coordinator degrades gracefully to a
//     local executor instead of failing.
//   - The coordinator journals committed batches through the
//     checkpoint write-ahead log (the PR 6 machinery), so a coordinator
//     crash resumes by replaying the journal and re-sharding only the
//     remainder.
//
// The invariant throughout: the sharded run's hit table is
// byte-identical to the single-node run, clean or faulted.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"hmmer3gpu/internal/frame"
	"hmmer3gpu/internal/seq"
)

// ProtoVersion is the wire protocol version. A worker built from a
// different protocol version is rejected at handshake. Version 2
// extended hello with a fencing epoch (the takeover handshake of
// DESIGN §2j) and a byte that is now reserved as 0.
const ProtoVersion = 2

// MaxFrame bounds a single frame so a corrupt or hostile length field
// cannot force a multi-gigabyte allocation. A batch frame holds one
// residue-budgeted batch (single-digit MB at realistic budgets).
const MaxFrame = 1 << 28

// Message types (the first body byte). The body layouts are
// little-endian throughout:
//
//	hello     (coordinator→worker): u8 version | fingerprint[32] | u8 mode | u8 reserved (0) | u64 epoch
//	helloAck  (worker→coordinator): u8 version | u16 capacity | u16 nameLen | name
//	helloNack (worker→coordinator): u16 reasonLen | reason
//	batch     (coordinator→worker): u64 seq | u64 epoch | u64 offset | u32 nSeqs |
//	           per seq: u32 nameLen | name | u32 descLen | desc | u32 resLen | residues
//	result    (worker→coordinator): u64 seq | u64 epoch | payload (opaque)
//	execErr   (worker→coordinator): u64 seq | u64 epoch | message
//	ping/pong (either direction):   u64 nonce
//	goodbye   (either direction):   empty
const (
	msgHello byte = iota + 1
	msgHelloAck
	msgHelloNack
	msgBatch
	msgResult
	msgExecErr
	msgPing
	msgPong
	msgGoodbye
)

// WireError reports a well-framed body whose message payload is
// malformed (truncated field, implausible count).
type WireError struct {
	Msg    byte
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("cluster: bad message (type %d): %s", e.Msg, e.Reason)
}

// HandshakeError reports a connect-time rejection: protocol version
// skew, config-fingerprint mismatch, simulator-mode mismatch, or a
// corrupt hello.
type HandshakeError struct {
	Worker string
	Reason string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("cluster: handshake with worker %s rejected: %s", e.Worker, e.Reason)
}

// wireFrame bounds a frame's body: the message type byte, then at
// most MaxFrame bytes in all.
var wireFrame = frame.Limits{Min: 1, Max: MaxFrame}

// writeFrame writes body (type byte first) to w as one frame in a
// single Write, so fault injection and the torn-frame semantics can
// reason per frame.
func writeFrame(w io.Writer, body []byte) error {
	_, err := w.Write(frame.Append(make([]byte, 0, frame.HeaderSize+len(body)), body))
	return err
}

// readFrame reads one frame from r and splits off its message type.
// Errors are frame.Limits.Read's; connection handlers treat every one
// as fatal, since a peer that frames incorrectly cannot resynchronise.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	body, err := wireFrame.Read(r)
	if err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// Handshake is the hello the coordinator opens every connection with.
// The worker vets it against the highest epoch it has ever acked, so a
// stale primary reconnecting after a failover is nacked, never
// assigned to.
type Handshake struct {
	Version     byte
	Fingerprint [32]byte
	Mode        byte
	// Epoch is the coordinator's fencing epoch. A worker that has
	// acked a hello at epoch E nacks any later hello with epoch < E
	// and answers batch frames from the older session with a
	// stale-epoch exec error.
	Epoch uint64
}

// HelloAck is the worker's acceptance: its name and how many batches
// it can process concurrently (its device count).
type HelloAck struct {
	Version  byte
	Capacity int
	Name     string
}

func encodeHello(h Handshake) []byte {
	body := make([]byte, 0, 1+1+32+1+1+8)
	body = append(body, msgHello, h.Version)
	body = append(body, h.Fingerprint[:]...)
	body = append(body, h.Mode, 0)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], h.Epoch)
	return append(body, u64[:]...)
}

func parseHello(p []byte) (Handshake, error) {
	var h Handshake
	if len(p) != 1+32+1+1+8 {
		return h, &WireError{Msg: msgHello, Reason: fmt.Sprintf("hello body is %d bytes, want %d", len(p), 1+32+1+1+8)}
	}
	h.Version = p[0]
	copy(h.Fingerprint[:], p[1:33])
	h.Mode = p[33]
	if p[34] != 0 {
		// Once a standby coordinator's role; a peer that sets it expects
		// a session this worker no longer serves.
		return h, &WireError{Msg: msgHello, Reason: fmt.Sprintf("reserved hello byte 34 is %d, want 0", p[34])}
	}
	h.Epoch = binary.LittleEndian.Uint64(p[35:43])
	return h, nil
}

func encodeHelloAck(a HelloAck) []byte {
	if len(a.Name) > 0xffff {
		a.Name = a.Name[:0xffff]
	}
	body := make([]byte, 0, 1+1+2+2+len(a.Name))
	body = append(body, msgHelloAck, a.Version)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(a.Capacity))
	body = append(body, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(a.Name)))
	body = append(body, u16[:]...)
	return append(body, a.Name...)
}

func parseHelloAck(p []byte) (HelloAck, error) {
	var a HelloAck
	if len(p) < 1+2+2 {
		return a, &WireError{Msg: msgHelloAck, Reason: "short helloAck body"}
	}
	a.Version = p[0]
	a.Capacity = int(binary.LittleEndian.Uint16(p[1:3]))
	n := int(binary.LittleEndian.Uint16(p[3:5]))
	if len(p) != 5+n {
		return a, &WireError{Msg: msgHelloAck, Reason: "helloAck name length does not match body"}
	}
	a.Name = string(p[5:])
	return a, nil
}

func encodeHelloNack(reason string) []byte {
	if len(reason) > 0xffff {
		reason = reason[:0xffff]
	}
	body := make([]byte, 0, 1+2+len(reason))
	body = append(body, msgHelloNack)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(reason)))
	body = append(body, u16[:]...)
	return append(body, reason...)
}

func parseHelloNack(p []byte) (string, error) {
	if len(p) < 2 {
		return "", &WireError{Msg: msgHelloNack, Reason: "short helloNack body"}
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+n {
		return "", &WireError{Msg: msgHelloNack, Reason: "helloNack reason length does not match body"}
	}
	return string(p[2:]), nil
}

// encodeBatchMsg serialises one batch assignment: identity, fencing
// epoch, and the full sequence data (names, descriptions, digital
// residues) — the worker re-hosts the batch from the wire, it never
// reads the database file.
func encodeBatchMsg(seqNo, epoch, offset uint64, db *seq.Database) []byte {
	size := 1 + 8 + 8 + 8 + 4
	for _, s := range db.Seqs {
		size += 12 + len(s.Name) + len(s.Desc) + len(s.Residues)
	}
	body := make([]byte, 0, size)
	body = append(body, msgBatch)
	var u64 [8]byte
	for _, v := range []uint64{seqNo, epoch, offset} {
		binary.LittleEndian.PutUint64(u64[:], v)
		body = append(body, u64[:]...)
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(db.NumSeqs()))
	body = append(body, u32[:]...)
	for _, s := range db.Seqs {
		for _, field := range [][]byte{[]byte(s.Name), []byte(s.Desc), s.Residues} {
			binary.LittleEndian.PutUint32(u32[:], uint32(len(field)))
			body = append(body, u32[:]...)
			body = append(body, field...)
		}
	}
	return body
}

func parseBatchMsg(p []byte) (seqNo, epoch, offset uint64, db *seq.Database, err error) {
	pos := 0
	need := func(n int) bool { return pos+n <= len(p) }
	if !need(8 + 8 + 8 + 4) {
		return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: "short batch header"}
	}
	seqNo = binary.LittleEndian.Uint64(p[pos:])
	epoch = binary.LittleEndian.Uint64(p[pos+8:])
	offset = binary.LittleEndian.Uint64(p[pos+16:])
	nSeqs := binary.LittleEndian.Uint32(p[pos+24:])
	pos += 28
	// Each sequence costs at least 12 bytes of length prefixes, so an
	// implausible count is rejected before any allocation.
	if uint64(nSeqs)*12 > uint64(len(p)-pos) {
		return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("implausible sequence count %d", nSeqs)}
	}
	db = seq.NewDatabase("cluster-batch")
	for i := uint32(0); i < nSeqs; i++ {
		var fields [3][]byte
		for f := range fields {
			if !need(4) {
				return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("seq %d: truncated length", i)}
			}
			n := binary.LittleEndian.Uint32(p[pos:])
			pos += 4
			if uint64(n) > uint64(len(p)-pos) {
				return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("seq %d: field length %d exceeds body", i, n)}
			}
			fields[f] = p[pos : pos+int(n)]
			pos += int(n)
		}
		if len(fields[0]) == 0 {
			return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("seq %d: empty name", i)}
		}
		db.Add(&seq.Sequence{
			Name:     string(fields[0]),
			Desc:     string(fields[1]),
			Residues: append([]byte(nil), fields[2]...),
		})
	}
	if pos != len(p) {
		return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("%d trailing bytes", len(p)-pos)}
	}
	return seqNo, epoch, offset, db, nil
}

func encodeResultMsg(seqNo, epoch uint64, payload []byte) []byte {
	body := make([]byte, 0, 1+16+len(payload))
	body = append(body, msgResult)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], seqNo)
	body = append(body, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], epoch)
	body = append(body, u64[:]...)
	return append(body, payload...)
}

func parseResultMsg(p []byte) (seqNo, epoch uint64, payload []byte, err error) {
	if len(p) < 16 {
		return 0, 0, nil, &WireError{Msg: msgResult, Reason: "short result body"}
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), p[16:], nil
}

func encodeExecErr(seqNo, epoch uint64, msg string) []byte {
	body := make([]byte, 0, 1+16+len(msg))
	body = append(body, msgExecErr)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], seqNo)
	body = append(body, u64[:]...)
	binary.LittleEndian.PutUint64(u64[:], epoch)
	body = append(body, u64[:]...)
	return append(body, msg...)
}

func parseExecErr(p []byte) (seqNo, epoch uint64, msg string, err error) {
	if len(p) < 16 {
		return 0, 0, "", &WireError{Msg: msgExecErr, Reason: "short execErr body"}
	}
	return binary.LittleEndian.Uint64(p[0:8]), binary.LittleEndian.Uint64(p[8:16]), string(p[16:]), nil
}

func encodePingPong(typ byte, nonce uint64) []byte {
	body := make([]byte, 9)
	body[0] = typ
	binary.LittleEndian.PutUint64(body[1:], nonce)
	return body
}

func parsePingPong(typ byte, p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, &WireError{Msg: typ, Reason: "ping/pong body is not 8 bytes"}
	}
	return binary.LittleEndian.Uint64(p), nil
}
