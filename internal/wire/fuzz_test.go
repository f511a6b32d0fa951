package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

// Fuzz targets for every parser a peer reaches before or after the
// handshake. Without -fuzz they run their seed corpora as ordinary tests;
// `go test -fuzz FuzzReadFrame ./internal/wire` explores further. Each
// target asserts that hostile bytes produce an error or a well-formed
// result — never a panic, and never an allocation beyond maxFrame.

// allocSlack absorbs the small bookkeeping allocations of the checked call
// itself (error values, codec state); anything proportional to a hostile
// length field would exceed it.
const allocSlack = 64 << 10

// boundedAlloc runs fn and fails t when it allocated more than maxFrame
// bytes in total.
func boundedAlloc(t *testing.T, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxFrame+allocSlack {
		t.Fatalf("allocated %d bytes, bound %d", got, maxFrame+allocSlack)
	}
}

// execBatchBody builds a whole exec-batch frame body the way
// Session.ExecBatch lays it out: fixed fields, then the sealed bytes.
func execBatchBody(epoch uint32, batchID uint64, sealed []byte) []byte {
	return append(appendExecBatchHeader(nil, epoch, batchID), sealed...)
}

func frameBytes(typ byte, body []byte) []byte {
	var buf bytes.Buffer
	_ = writeFrame(&buf, typ, body)
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(0x03, []byte("payload"))) // the retired exec frame
	f.Add(frameBytes(frameControl, nil))
	f.Add([]byte{0, 0, 0, 0, 0x03})                       // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x03})           // beyond maxFrame
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, frameExecBatch}) // exactly maxFrame, truncated body
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			typ  byte
			body []byte
			err  error
		)
		boundedAlloc(t, func() { typ, body, err = readFrame(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		if len(body)+1 > maxFrame {
			t.Fatalf("accepted a %d-byte body past maxFrame", len(body))
		}
		if again := frameBytes(typ, body); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("re-encoded frame differs from the bytes read")
		}
	})
}

func FuzzParseExecBatch(f *testing.F) {
	f.Add(execBatchBody(1, 99, []byte("sealed batch")))
	f.Add(execBatchBody(0, 0, nil))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			epoch  uint32
			id     uint64
			sealed []byte
			err    error
		)
		boundedAlloc(t, func() { epoch, id, sealed, err = parseExecBatch(body) })
		if err != nil {
			return
		}
		if !bytes.Equal(execBatchBody(epoch, id, sealed), body) {
			t.Fatalf("exec-batch body does not round-trip")
		}
	})
}

func FuzzParseRekey(f *testing.F) {
	plain, _ := rekeyBody(1, codecPlain, nil)
	f.Add(plain)
	aes, _ := rekeyBody(2, codecAESGCM, bytes.Repeat([]byte{0x42}, 32))
	f.Add(aes)
	short, _ := rekeyBody(3, codecAESGCM, []byte{1, 2, 3})
	f.Add(short)
	f.Add([]byte{0, 0, 0, 1, 0xff, 'x'})
	unknown, _ := rekeyBody(4, "rot13", nil)
	f.Add(unknown)
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			codec security.Codec
			err   error
		)
		boundedAlloc(t, func() { _, codec, err = parseRekey(body) })
		if err == nil && codec == nil {
			t.Fatal("rekey parsed without a codec")
		}
	})
}

// FuzzServeControl feeds arbitrary authenticated plaintext into the
// server's control handler table: an op with a handler must come back
// sealed with that handler's reply, anything else must be refused.
func FuzzServeControl(f *testing.F) {
	f.Add([]byte{opStats})
	f.Add(append([]byte{opMgmt}, `{"op":"lease","child":"c"}`...))
	f.Add([]byte{})
	f.Add([]byte{0x00, 'x'})
	f.Add([]byte{0xff})
	srv, err := NewServer(ServerConfig{
		PSK: testPSK(), Hello: edgeHello("fuzz0"),
		Stats: func() []byte { return []byte(`{"node":"fuzz0"}`) },
		Mgmt:  func(req []byte) []byte { return append([]byte("ack:"), req...) },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, plain []byte) {
		sealed, err := srv.master.Encode(plain)
		if err != nil {
			t.Fatal(err)
		}
		var reply []byte
		boundedAlloc(t, func() { reply, err = srv.serveControl(sealed) })
		var want []byte
		switch {
		case len(plain) > 0 && plain[0] == opStats:
			want = []byte(`{"node":"fuzz0"}`)
		case len(plain) > 0 && plain[0] == opMgmt:
			want = append([]byte("ack:"), plain[1:]...)
		default:
			if err == nil {
				t.Fatalf("op-less or unknown control request %x was served", plain)
			}
			return
		}
		if err != nil {
			t.Fatalf("control op %#x refused: %v", plain[0], err)
		}
		got, err := srv.master.Decode(reply)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("control reply = %q (%v), want %q", got, err, want)
		}
		// The same bytes unsealed never authenticate.
		if _, err := srv.serveControl(plain); err == nil {
			t.Fatal("unauthenticated control request was served")
		}
	})
}

// FuzzParseBatchBlob covers the batch blob a workerd opens out of an
// authenticated exec-batch frame.
func FuzzParseBatchBlob(f *testing.F) {
	blob := telemetry.TraceContext{TraceID: 1, Sampled: true}.AppendTo(nil)
	blob = binary.BigEndian.AppendUint32(blob, 2)
	for i, p := range []string{"a", "bb"} {
		blob = binary.BigEndian.AppendUint64(blob, uint64(i+1))
		blob = binary.BigEndian.AppendUint64(blob, 1000)
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(p)))
		blob = append(blob, p...)
	}
	f.Add(blob)
	f.Add(binary.BigEndian.AppendUint32(telemetry.TraceContext{}.AppendTo(nil), 0))
	f.Add(binary.BigEndian.AppendUint32(telemetry.TraceContext{}.AppendTo(nil), 0xffffffff))
	f.Add(binary.BigEndian.AppendUint32(telemetry.TraceContext{}.AppendTo(nil), 1024))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var (
			entries []skel.BatchEntry
			err     error
		)
		boundedAlloc(t, func() { _, entries, err = skel.ParseBatchBlob(nil, blob) })
		if err != nil {
			return
		}
		size := telemetry.TraceContextSize + 4
		for _, e := range entries {
			size += 20 + len(e.Payload)
		}
		if size != len(blob) {
			t.Fatalf("entries cover %d of %d blob bytes", size, len(blob))
		}
	})
}
