package transport

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/binenc"
	"repro/internal/identity"
)

// BinaryAppender is the encode half of the binary codec contract; message
// types that implement it (all of internal/wire, ledger.Block,
// identity.Envelope) encode without reflection, appending into a
// caller-supplied buffer.
type BinaryAppender interface {
	AppendBinary(buf []byte) []byte
}

// BinaryCodec is the message-body codec NewMessage and Message.Decode use.
// It encodes bodies with their AppendBinary/UnmarshalBinary fast path and
// falls back to JSON for types without one (error strings, test
// payloads). The fast path is taken only for types implementing BOTH
// halves of the contract (checked against the pointer type when a value
// is passed), so encode and decode always pick the same scheme for the
// same logical type — an asymmetric type cannot marshal binary on one
// side and fall back to JSON on the other.
type BinaryCodec struct{}

var (
	appenderType    = reflect.TypeOf((*BinaryAppender)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem()
)

// asBinaryBody returns the body's encoder when its type participates in
// the binary fast path: both interface halves implemented, directly or
// via the pointer type. Wire messages (always passed as pointers) hit the
// first branch without reflection.
func asBinaryBody(body any) (BinaryAppender, bool) {
	if m, ok := body.(BinaryAppender); ok {
		if _, ok := body.(encoding.BinaryUnmarshaler); ok {
			return m, true
		}
	}
	rv := reflect.ValueOf(body)
	if !rv.IsValid() || rv.Kind() == reflect.Pointer {
		return nil, false
	}
	pt := reflect.PointerTo(rv.Type())
	if pt.Implements(appenderType) && pt.Implements(unmarshalerType) {
		pv := reflect.New(rv.Type())
		pv.Elem().Set(rv)
		return pv.Interface().(BinaryAppender), true
	}
	return nil, false
}

// Marshal encodes a message body.
func (BinaryCodec) Marshal(body any) ([]byte, error) {
	if m, ok := asBinaryBody(body); ok {
		return m.AppendBinary(nil), nil
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("transport: marshal %T: %w", body, err)
	}
	return raw, nil
}

// Unmarshal decodes data into the message body struct.
func (BinaryCodec) Unmarshal(data []byte, body any) error {
	if m, ok := body.(encoding.BinaryUnmarshaler); ok {
		if _, ok := body.(BinaryAppender); ok {
			return m.UnmarshalBinary(data)
		}
	}
	if err := json.Unmarshal(data, body); err != nil {
		return fmt.Errorf("transport: unmarshal %T: %w", body, err)
	}
	return nil
}

// --- signed frame encoding ---

// frameVersion versions the binary frame layout below. It doubles as the
// frame payload's domain marker: every byte string a node authenticates
// with its identity key (Ed25519 seal or session MAC) starts with a byte
// that is unique to its payload class, so a signature or MAC over one
// class can never be replayed as another:
//
//	0x01  canonical transaction encoding (txn binary version; §3.2 client
//	      end_transaction envelopes)
//	0x03  transport frame (this file; 0x02 was the frame layout without
//	      the trace-context field and is no longer accepted)
//	0x18  handshake hello (the uvarint length prefix of helloContext)
//	'{'   legacy JSON transaction payloads
const frameVersion = 3

// traceContextLen is the encoded size of a propagated span context:
// 16-byte trace ID followed by an 8-byte parent span ID.
const traceContextLen = 16 + 8

// appendFrame appends the authenticated frame encoding: the destination,
// a per-sender sequence number (checked strictly increasing per TCP
// connection; combined with per-connection session keys this prevents
// replay in session mode — see tcpConn.lastRespSeq for the envelope-mode
// caveat), the commit-path trace context (empty for untraced traffic),
// the message type and the codec-encoded body. The sender authenticates
// exactly these bytes; no intermediate re-serialization or base64
// inflation occurs between the body encoding and the signature or MAC.
// Authenticating the trace context matters: a forged parent span would
// let an attacker stitch fake causality into an audit trail.
//
// Layout: ver(1) | to | seq uvarint | trace bytes(0 or 24) | type | body(rest).
func appendFrame(buf []byte, to identity.NodeID, seq uint64, msg Message) []byte {
	buf = binenc.AppendByte(buf, frameVersion)
	buf = binenc.AppendString(buf, string(to))
	buf = binenc.AppendUvarint(buf, seq)
	if msg.Trace.Valid() {
		var tc [traceContextLen]byte
		copy(tc[:16], msg.Trace.TraceID[:])
		copy(tc[16:], msg.Trace.SpanID[:])
		buf = binenc.AppendBytes(buf, tc[:])
	} else {
		buf = binenc.AppendBytes(buf, nil)
	}
	buf = binenc.AppendString(buf, msg.Type)
	return append(buf, msg.Body...)
}

// parseFrame decodes a signed frame payload. The returned message body
// aliases payload; callers that recycle payload buffers must do so only
// after the body has been decoded (Message.Decode copies).
func parseFrame(payload []byte) (to identity.NodeID, seq uint64, msg Message, err error) {
	r := binenc.NewReader(payload)
	if v := r.Byte(); v != frameVersion && r.Err() == nil {
		return "", 0, Message{}, fmt.Errorf("transport: unsupported frame version %d", v)
	}
	to = identity.NodeID(r.String())
	seq = r.Uvarint()
	tc := r.Bytes()
	msg.Type = r.String()
	if err := r.Err(); err != nil {
		return "", 0, Message{}, fmt.Errorf("transport: parse frame: %w", err)
	}
	switch len(tc) {
	case 0:
	case traceContextLen:
		copy(msg.Trace.TraceID[:], tc[:16])
		copy(msg.Trace.SpanID[:], tc[16:])
	default:
		return "", 0, Message{}, fmt.Errorf("transport: parse frame: trace context is %d bytes (want 0 or %d)", len(tc), traceContextLen)
	}
	msg.Body = payload[len(payload)-r.Len():]
	return to, seq, msg, nil
}

// --- pooled encode buffers ---

// maxPooledBuf bounds the capacity of buffers returned to the pool so one
// outsized block broadcast does not pin megabytes per P forever.
const maxPooledBuf = 1 << 20

type encodeBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return &encodeBuf{b: make([]byte, 0, 1024)} }}

func getBuf() *encodeBuf { return bufPool.Get().(*encodeBuf) }

func putBuf(buf *encodeBuf) {
	if cap(buf.b) > maxPooledBuf {
		return
	}
	buf.b = buf.b[:0]
	bufPool.Put(buf)
}
