package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
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

// TestParseBatchAllocsPerSeq: a parsed sequence costs its name, its
// description and its record, and its residues nothing: they stay in
// the message body.
func TestParseBatchAllocsPerSeq(t *testing.T) {
	allocs := func(n int) float64 {
		db := seq.NewDatabase("allocs")
		for i := 0; i < n; i++ {
			db.Add(&seq.Sequence{Name: fmt.Sprintf("s%d", i), Desc: "desc", Residues: make([]byte, 40+i)})
		}
		body := encodeBatchMsg(1, 1, 0, db)[1:]
		return testing.AllocsPerRun(20, func() {
			if _, _, _, _, err := parseBatchMsg(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(20); many-few > 3*18 {
		t.Errorf("parseBatchMsg allocates %v times for 2 sequences and %v for 20: more than 3 per sequence", few, many)
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

// Every wire message's bytes are pinned (ProtoVersion 2): a coordinator
// and a worker from different builds of the same protocol version must
// agree on them, and the golden bytes must parse back to themselves.
func TestWireFormatPinned(t *testing.T) {
	var fp [32]byte
	for i := range fp {
		fp[i] = byte(i)
	}
	for _, c := range []struct {
		name string
		body []byte
		hex  string
	}{
		{"hello", encodeHello(Handshake{Version: ProtoVersion, Fingerprint: fp, Mode: 1, Epoch: 0x0102030405060708}), "0102000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f01000807060504030201"},
		{"helloAck", encodeHelloAck(HelloAck{Version: ProtoVersion, Capacity: 4, Name: "wörker-0"}), "02020400090077c3b6726b65722d30"},
		{"helloNack", encodeHelloNack("stale epoch 3 < 5"), "0311007374616c652065706f63682033203c2035"},
		{"batch", encodeBatchMsg(3, 7, 64, testBatchDB(1)), "040300000000000000070000000000000040000000000000000300000004000000627365710a000000626174636820646573630600000001020304050604000000627365710a0000006261746368206465736308000000020304050607080904000000627365710a000000626174636820646573630a000000030405060708090a0b0c"},
		{"result", encodeResultMsg(3, 7, []byte("payload")), "05030000000000000007000000000000007061796c6f6164"},
		{"execErr", encodeExecErr(3, 7, "device lost"), "0603000000000000000700000000000000646576696365206c6f7374"},
		{"ping", encodePingPong(msgPing, 0xfeedface), "07cefaedfe00000000"},
	} {
		if got := hex.EncodeToString(c.body); got != c.hex {
			t.Errorf("%s encodes to\n%s\nwant\n%s", c.name, got, c.hex)
			continue
		}
		golden, _ := hex.DecodeString(c.hex)
		if again, err := reencode(golden); err != nil || !bytes.Equal(again, golden) {
			t.Errorf("%s: golden bytes parse and re-encode to %x, %v", c.name, again, err)
		}
	}
}

// reencode parses a message body (type byte first) and encodes what it
// parsed, so a caller can check the two agree.
func reencode(body []byte) ([]byte, error) {
	typ, p := body[0], body[1:]
	switch typ {
	case msgHello:
		h, err := parseHello(p)
		return encodeHello(h), err
	case msgHelloAck:
		a, err := parseHelloAck(p)
		return encodeHelloAck(a), err
	case msgHelloNack:
		reason, err := parseHelloNack(p)
		return encodeHelloNack(reason), err
	case msgBatch:
		seqNo, epoch, offset, db, err := parseBatchMsg(p)
		if err != nil {
			return nil, err
		}
		return encodeBatchMsg(seqNo, epoch, offset, db), nil
	case msgResult:
		seqNo, epoch, payload, err := parseResultMsg(p)
		return encodeResultMsg(seqNo, epoch, payload), err
	case msgExecErr:
		seqNo, epoch, msg, err := parseExecErr(p)
		return encodeExecErr(seqNo, epoch, msg), err
	case msgPing, msgPong:
		nonce, err := parsePingPong(typ, p)
		return encodePingPong(typ, nonce), err
	}
	return body, nil
}
