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
	br := frame.NewReader(body) // wireFrame's Min holds the type byte
	return br.U8(), br.Rest(), nil
}

// parsed is every message parser's one end check: a field that ran
// past the body, or bytes after the last field, is a *WireError.
func parsed(typ byte, r *frame.Reader) error {
	if err := r.Err(); err != nil {
		return &WireError{Msg: typ, Reason: err.Error()}
	}
	return nil
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
	body := append([]byte{msgHello, h.Version}, h.Fingerprint[:]...)
	return binary.LittleEndian.AppendUint64(append(body, h.Mode, 0), h.Epoch)
}

func parseHello(p []byte) (Handshake, error) {
	r := frame.NewReader(p)
	h := Handshake{Version: r.U8()}
	copy(h.Fingerprint[:], r.Bytes(32))
	h.Mode = r.U8()
	reserved := r.U8()
	h.Epoch = r.U64()
	if err := parsed(msgHello, r); err != nil {
		return h, err
	}
	if reserved != 0 {
		// Once a standby coordinator's role; a peer that sets it expects
		// a session this worker no longer serves.
		return h, &WireError{Msg: msgHello, Reason: fmt.Sprintf("reserved hello byte 34 is %d, want 0", reserved)}
	}
	return h, nil
}

func encodeHelloAck(a HelloAck) []byte {
	if len(a.Name) > 0xffff {
		a.Name = a.Name[:0xffff]
	}
	body := binary.LittleEndian.AppendUint16([]byte{msgHelloAck, a.Version}, uint16(a.Capacity))
	return append(binary.LittleEndian.AppendUint16(body, uint16(len(a.Name))), a.Name...)
}

func parseHelloAck(p []byte) (HelloAck, error) {
	r := frame.NewReader(p)
	a := HelloAck{Version: r.U8(), Capacity: int(r.U16())}
	a.Name = string(r.Bytes(uint64(r.U16())))
	return a, parsed(msgHelloAck, r)
}

func encodeHelloNack(reason string) []byte {
	if len(reason) > 0xffff {
		reason = reason[:0xffff]
	}
	return append(binary.LittleEndian.AppendUint16([]byte{msgHelloNack}, uint16(len(reason))), reason...)
}

func parseHelloNack(p []byte) (string, error) {
	r := frame.NewReader(p)
	reason := string(r.Bytes(uint64(r.U16())))
	return reason, parsed(msgHelloNack, r)
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
	body := append(make([]byte, 0, size), msgBatch)
	for _, v := range []uint64{seqNo, epoch, offset} {
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(db.NumSeqs()))
	for _, s := range db.Seqs {
		body = append(binary.LittleEndian.AppendUint32(body, uint32(len(s.Name))), s.Name...)
		body = append(binary.LittleEndian.AppendUint32(body, uint32(len(s.Desc))), s.Desc...)
		body = append(binary.LittleEndian.AppendUint32(body, uint32(len(s.Residues))), s.Residues...)
	}
	return body
}

func parseBatchMsg(p []byte) (seqNo, epoch, offset uint64, db *seq.Database, err error) {
	r := frame.NewReader(p)
	seqNo, epoch, offset = r.U64(), r.U64(), r.U64()
	nSeqs := r.U32()
	// Each sequence costs at least 12 bytes of length prefixes, so an
	// implausible count is rejected before any allocation.
	if uint64(nSeqs)*12 > uint64(r.Len()) {
		return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("implausible sequence count %d", nSeqs)}
	}
	// Residues stay in p: the frame reader allocated it for this message
	// alone, nothing on the worker path writes them, and r.Bytes caps them.
	db = &seq.Database{Name: "cluster-batch", Seqs: make([]*seq.Sequence, 0, nSeqs)}
	for i := uint32(0); i < nSeqs; i++ {
		name := string(r.Bytes(uint64(r.U32())))
		desc := string(r.Bytes(uint64(r.U32())))
		db.Add(&seq.Sequence{Name: name, Desc: desc, Residues: r.Bytes(uint64(r.U32()))})
	}
	if err := parsed(msgBatch, r); err != nil {
		return 0, 0, 0, nil, err
	}
	for i, s := range db.Seqs {
		if s.Name == "" {
			return 0, 0, 0, nil, &WireError{Msg: msgBatch, Reason: fmt.Sprintf("seq %d: empty name", i)}
		}
	}
	return seqNo, epoch, offset, db, nil
}

func encodeResultMsg(seqNo, epoch uint64, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(append(make([]byte, 0, 1+16+len(payload)), msgResult), seqNo)
	return append(binary.LittleEndian.AppendUint64(body, epoch), payload...)
}

func parseResultMsg(p []byte) (seqNo, epoch uint64, payload []byte, err error) {
	r := frame.NewReader(p)
	seqNo, epoch = r.U64(), r.U64()
	return seqNo, epoch, r.Rest(), parsed(msgResult, r)
}

func encodeExecErr(seqNo, epoch uint64, msg string) []byte {
	body := binary.LittleEndian.AppendUint64(append(make([]byte, 0, 1+16+len(msg)), msgExecErr), seqNo)
	return append(binary.LittleEndian.AppendUint64(body, epoch), msg...)
}

func parseExecErr(p []byte) (seqNo, epoch uint64, msg string, err error) {
	r := frame.NewReader(p)
	seqNo, epoch = r.U64(), r.U64()
	return seqNo, epoch, string(r.Rest()), parsed(msgExecErr, r)
}

func encodePingPong(typ byte, nonce uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{typ}, nonce)
}

func parsePingPong(typ byte, p []byte) (uint64, error) {
	r := frame.NewReader(p)
	nonce := r.U64()
	return nonce, parsed(typ, r)
}
