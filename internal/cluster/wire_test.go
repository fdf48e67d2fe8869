package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"hmmer3gpu/internal/frame"
	"hmmer3gpu/internal/seq"
)

func testBatchDB(i int) *seq.Database {
	db := seq.NewDatabase("wire-test")
	for s := 0; s < 3; s++ {
		res := make([]byte, 5+2*s+i)
		for k := range res {
			res[k] = byte((i + s + k) % 20)
		}
		db.Add(&seq.Sequence{
			Name:     string(rune('a'+i)) + "seq",
			Desc:     "batch desc",
			Residues: res,
		})
	}
	return db
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := encodePingPong(msgPing, 42)
	if err := writeFrame(&buf, body); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != msgPing {
		t.Fatalf("type = %d, want ping", typ)
	}
	nonce, err := parsePingPong(typ, payload)
	if err != nil || nonce != 42 {
		t.Fatalf("nonce = %d, err %v", nonce, err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	raw := framed(encodeHello(Handshake{Version: ProtoVersion, Mode: 1}))
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		_, _, err := readFrame(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestTornFrameIsUnexpectedEOF(t *testing.T) {
	raw := framed(encodeBatchMsg(1, 2, 3, testBatchDB(0)))
	for _, cut := range []int{frame.HeaderSize + 1, len(raw) / 2, len(raw) - 1} {
		_, _, err := readFrame(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want unexpected EOF", cut, err)
		}
	}
	// A cut exactly on a frame boundary is a clean EOF, not torn.
	if _, _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want EOF", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Handshake{Version: ProtoVersion, Mode: 1}
	for i := range h.Fingerprint {
		h.Fingerprint[i] = byte(i * 7)
	}
	body := encodeHello(h)
	if body[0] != msgHello {
		t.Fatalf("type byte = %d", body[0])
	}
	got, err := parseHello(body[1:])
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v want %+v", got, h)
	}
}

func TestHelloAckAndNackRoundTrip(t *testing.T) {
	a := HelloAck{Version: ProtoVersion, Capacity: 4, Name: "worker-2"}
	got, err := parseHelloAck(encodeHelloAck(a)[1:])
	if err != nil || got != a {
		t.Fatalf("ack round trip: got %+v err %v", got, err)
	}
	reason, err := parseHelloNack(encodeHelloNack("fingerprint mismatch")[1:])
	if err != nil || reason != "fingerprint mismatch" {
		t.Fatalf("nack round trip: got %q err %v", reason, err)
	}
}

func TestBatchMsgRoundTrip(t *testing.T) {
	db := testBatchDB(2)
	body := encodeBatchMsg(7, 9, 120, db)
	seqNo, epoch, offset, got, err := parseBatchMsg(body[1:])
	if err != nil {
		t.Fatalf("parseBatchMsg: %v", err)
	}
	if seqNo != 7 || epoch != 9 || offset != 120 {
		t.Fatalf("identity = (%d,%d,%d)", seqNo, epoch, offset)
	}
	if got.NumSeqs() != db.NumSeqs() || got.TotalResidues() != db.TotalResidues() {
		t.Fatalf("db shape changed: %d seqs %d residues", got.NumSeqs(), got.TotalResidues())
	}
	for i, s := range got.Seqs {
		orig := db.Seqs[i]
		if s.Name != orig.Name || s.Desc != orig.Desc || !bytes.Equal(s.Residues, orig.Residues) {
			t.Fatalf("seq %d differs after round trip", i)
		}
	}
}

func TestResultAndExecErrRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 250}
	seqNo, epoch, got, err := parseResultMsg(encodeResultMsg(3, 11, payload)[1:])
	if err != nil || seqNo != 3 || epoch != 11 || !bytes.Equal(got, payload) {
		t.Fatalf("result round trip failed: (%d,%d,%v) err %v", seqNo, epoch, got, err)
	}
	seqNo, epoch, msg, err := parseExecErr(encodeExecErr(5, 13, "device lost")[1:])
	if err != nil || seqNo != 5 || epoch != 13 || msg != "device lost" {
		t.Fatalf("execErr round trip failed: (%d,%d,%q) err %v", seqNo, epoch, msg, err)
	}
}

func TestParseBatchRejectsImplausibleCounts(t *testing.T) {
	db := testBatchDB(0)
	body := encodeBatchMsg(1, 1, 0, db)[1:]
	// Inflate the sequence count field far beyond the body size.
	body[24], body[25], body[26], body[27] = 0xff, 0xff, 0xff, 0x0f
	if _, _, _, _, err := parseBatchMsg(body); err == nil {
		t.Fatal("implausible sequence count accepted")
	}
}

func TestDecodeFrameMatchesReadFrame(t *testing.T) {
	first := framed(encodePingPong(msgPong, 8))
	second := framed(encodeHelloNack("no"))
	stream := append(append([]byte(nil), first...), second...)
	typ, payload, rest, err := decodeFrame(stream)
	if err != nil || typ != msgPong || len(payload) != 8 {
		t.Fatalf("decodeFrame first: typ %d err %v", typ, err)
	}
	typ, _, rest, err = decodeFrame(rest)
	if err != nil || typ != msgHelloNack || len(rest) != 0 {
		t.Fatalf("decodeFrame second: typ %d rest %d err %v", typ, len(rest), err)
	}
}
