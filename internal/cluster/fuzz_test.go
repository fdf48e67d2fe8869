package cluster

import (
	"bytes"
	"testing"

	"hmmer3gpu/internal/frame"
)

// framed returns body as one wire frame.
func framed(body []byte) []byte { return frame.Append(nil, body) }

// decodeFrame is readFrame over bytes already in memory: it parses the
// frame at the front of data and returns the rest.
func decodeFrame(data []byte) (typ byte, payload, rest []byte, err error) {
	body, rest, err := wireFrame.Decode(data)
	if err != nil {
		return 0, nil, nil, err
	}
	return body[0], body[1:], rest, nil
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder and
// every message parser behind it. The parsers must never panic,
// over-allocate past the frame bound, or accept a frame whose re-encode
// disagrees with what was parsed.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(framed(encodeHello(Handshake{Version: ProtoVersion, Mode: 1})))
	f.Add(framed(encodeHelloAck(HelloAck{Version: ProtoVersion, Capacity: 2, Name: "w0"})))
	f.Add(framed(encodeHelloNack("mode mismatch")))
	f.Add(framed(encodeBatchMsg(3, 7, 64, testBatchDB(1))))
	f.Add(framed(encodeResultMsg(3, 7, []byte("payload"))))
	f.Add(framed(encodeExecErr(3, 7, "device lost")))
	f.Add(framed(encodePingPong(msgPing, 99)))
	f.Add(framed([]byte{msgGoodbye}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, _, err := decodeFrame(data)
		if err != nil {
			return
		}
		// The body parsers behind a valid frame must be total: no
		// panics, structured errors only, and what they accept
		// re-encodes to the same bytes.
		body := append([]byte{typ}, payload...)
		if again, err := reencode(body); err == nil && !bytes.Equal(again, body) {
			t.Fatalf("type %d: accepted %x, re-encoded %x", typ, body, again)
		}
	})
}
