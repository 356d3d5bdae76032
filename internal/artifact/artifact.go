// Package artifact implements nassim-art/v1, the versioned binary
// container the pipeline's disk cache stores stage artifacts in. The
// format is built for the warm path: a single read of the file yields a
// buffer whose sections decode into ready structures with near-zero
// copying — strings are aliased straight into the deduplicated string
// pool, and only scalars are re-read. Every document is self-validating:
// the header carries a schema tag and a content hash, so truncated,
// corrupted, or stale-layout files fail Open and the cache treats them as
// misses instead of decoding garbage.
//
// On-disk layout (all integers little-endian; varints are unsigned
// LEB128, signed values zigzag-encoded):
//
//	[0:8)    magic "NASART1\n"
//	[8:40)   sha256 over every byte from offset 40 to EOF
//	[40:42)  uint16 len(schema), then the schema tag bytes
//	         uint32 section count
//	         per section: uint16 len(name) + name,
//	                      uint64 payload offset, uint64 length
//	         payload bytes (the concatenated sections; the string pool
//	         is a reserved section named "\x00pool")
//
// Section payloads are streams of varints, booleans, 8-byte IEEE 754
// floats and (offset,len) string-pool references, written by Enc and read
// back by Dec.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Magic identifies a nassim-art/v1 container.
const Magic = "NASART1\n"

// poolSection is the reserved name of the string-pool section.
const poolSection = "\x00pool"

// Common decode failures. All of them mean "not a usable artifact"; the
// disk cache maps every error from this package to a cache miss.
var (
	ErrMagic     = errors.New("artifact: bad magic")
	ErrChecksum  = errors.New("artifact: content hash mismatch")
	ErrTruncated = errors.New("artifact: truncated")
	ErrSchema    = errors.New("artifact: schema mismatch")
)

// Writer builds one nassim-art/v1 document: named sections plus a shared
// deduplicated string pool.
type Writer struct {
	schema  string
	names   []string
	secs    []*Enc
	pool    []byte
	poolIdx map[string]uint64
}

// NewWriter starts a document with the given schema tag, which OpenSchema
// checks on read (the pipeline writes its stage's version here).
// expected is the number of distinct strings the document should intern:
// it sizes the pool's index up front, so a large document does not grow
// the index one insert at a time. 0 leaves the index to grow.
func NewWriter(schema string, expected int) *Writer {
	return &Writer{schema: schema, poolIdx: make(map[string]uint64, expected)}
}

// Section opens (or reopens) a named section and returns its encoder.
func (w *Writer) Section(name string) *Enc {
	for i, n := range w.names {
		if n == name {
			return w.secs[i]
		}
	}
	e := &Enc{w: w}
	w.names = append(w.names, name)
	w.secs = append(w.secs, e)
	return e
}

// intern appends s to the pool once and returns its offset.
func (w *Writer) intern(s string) uint64 {
	if off, ok := w.poolIdx[s]; ok {
		return off
	}
	off := uint64(len(w.pool))
	w.pool = append(w.pool, s...)
	w.poolIdx[s] = off
	return off
}

// Bytes assembles the document: header, section table, payload, content
// hash.
func (w *Writer) Bytes() []byte {
	names := append([]string(nil), w.names...)
	bodies := make([][]byte, len(names))
	for i, e := range w.secs {
		bodies[i] = e.buf
	}
	if len(w.pool) > 0 {
		names = append(names, poolSection)
		bodies = append(bodies, w.pool)
	}

	tableLen := 4
	payloadLen := 0
	for i, n := range names {
		tableLen += 2 + len(n) + 16
		payloadLen += len(bodies[i])
	}
	total := len(Magic) + sha256.Size + 2 + len(w.schema) + tableLen + payloadLen
	out := make([]byte, 0, total)
	out = append(out, Magic...)
	out = append(out, make([]byte, sha256.Size)...) // hash placeholder
	out = binary.LittleEndian.AppendUint16(out, uint16(len(w.schema)))
	out = append(out, w.schema...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	off := uint64(0)
	for i, n := range names {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(n)))
		out = append(out, n...)
		out = binary.LittleEndian.AppendUint64(out, off)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(bodies[i])))
		off += uint64(len(bodies[i]))
	}
	for _, b := range bodies {
		out = append(out, b...)
	}
	sum := sha256.Sum256(out[len(Magic)+sha256.Size:])
	copy(out[len(Magic):], sum[:])
	return out
}

// Reader is an opened document. Sections alias the underlying buffer;
// the buffer must stay immutable while decoded values are in use.
type Reader struct {
	schema string
	names  []string
	secs   [][]byte
	pool   []byte
}

// Open validates a document (magic, length, content hash) and indexes
// its sections. Any malformed input returns an error; Open never panics
// on garbage (the fuzz suite holds it to that).
func Open(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+sha256.Size+2 {
		return nil, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrMagic
	}
	body := data[len(Magic)+sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(Magic):len(Magic)+sha256.Size]) {
		return nil, ErrChecksum
	}
	pos := 0
	need := func(n int) bool { return len(body)-pos >= n }
	if !need(2) {
		return nil, ErrTruncated
	}
	sl := int(binary.LittleEndian.Uint16(body[pos:]))
	pos += 2
	if !need(sl) {
		return nil, ErrTruncated
	}
	r := &Reader{schema: string(body[pos : pos+sl])}
	pos += sl
	if !need(4) {
		return nil, ErrTruncated
	}
	nsec := int(binary.LittleEndian.Uint32(body[pos:]))
	pos += 4
	if nsec < 0 || nsec > 1<<16 {
		return nil, fmt.Errorf("artifact: absurd section count %d", nsec)
	}
	type span struct{ off, n uint64 }
	spans := make([]span, nsec)
	for i := 0; i < nsec; i++ {
		if !need(2) {
			return nil, ErrTruncated
		}
		nl := int(binary.LittleEndian.Uint16(body[pos:]))
		pos += 2
		if !need(nl + 16) {
			return nil, ErrTruncated
		}
		r.names = append(r.names, string(body[pos:pos+nl]))
		pos += nl
		spans[i] = span{binary.LittleEndian.Uint64(body[pos:]), binary.LittleEndian.Uint64(body[pos+8:])}
		pos += 16
	}
	payload := body[pos:]
	for i, s := range spans {
		if s.off > uint64(len(payload)) || s.n > uint64(len(payload))-s.off {
			return nil, ErrTruncated
		}
		sec := payload[s.off : s.off+s.n]
		if r.names[i] == poolSection {
			r.pool = sec
		}
		r.secs = append(r.secs, sec)
	}
	return r, nil
}

// OpenSchema is Open plus a schema-tag check: a document written under a
// different layout version is rejected before any section decodes.
func OpenSchema(data []byte, schema string) (*Reader, error) {
	r, err := Open(data)
	if err != nil {
		return nil, err
	}
	if r.schema != schema {
		return nil, fmt.Errorf("%w: have %q, want %q", ErrSchema, r.schema, schema)
	}
	return r, nil
}

// Section returns a decoder over the named section, or an error if the
// document has no such section.
func (r *Reader) Section(name string) (*Dec, error) {
	for i, n := range r.names {
		if n == name {
			return &Dec{buf: r.secs[i], pool: r.pool}, nil
		}
	}
	return nil, fmt.Errorf("artifact: no section %q", name)
}

// Enc appends primitive values to one section.
type Enc struct {
	w   *Writer
	buf []byte
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Int appends a signed value, zigzag-encoded.
func (e *Enc) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends a boolean.
func (e *Enc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float64 appends the 8 little-endian IEEE 754 bits of f, so every value
// (NaN payloads and signed zeros included) decodes bit for bit.
func (e *Enc) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a string-pool reference (offset,len), interning the
// bytes in the shared pool. Equal strings across the whole document cost
// one pool entry and decode to aliases of the same bytes.
func (e *Enc) String(s string) {
	e.Uvarint(e.w.intern(s))
	e.Uvarint(uint64(len(s)))
}

// Len marks a slice/map length n, distinguishing nil (the JSON reference
// codecs render nil and empty differently, and round-trips must be
// byte-exact).
func (e *Enc) Len(n int, isNil bool) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Dec reads one section. Errors are sticky: after the first malformed
// read every subsequent read returns zero values and Err reports the
// failure. Decoded strings alias the Open buffer.
type Dec struct {
	buf  []byte
	pos  int
	pool []byte
	err  error
}

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return u
}

// Int reads a zigzag-encoded signed value.
func (d *Dec) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	if d.err != nil || d.pos >= len(d.buf) {
		d.fail()
		return false
	}
	b := d.buf[d.pos]
	d.pos++
	return b != 0
}

// Float64 reads the 8 bits Enc.Float64 wrote.
func (d *Dec) Float64() float64 {
	if d.err != nil || len(d.buf)-d.pos < 8 {
		d.fail()
		return 0
	}
	u := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(u)
}

// String reads a string-pool reference and returns the string zero-copy:
// the header points into the pool bytes of the Open buffer, so a warm
// cache hit materializes corpora without copying any text.
func (d *Dec) String() string {
	off := d.Uvarint()
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n == 0 {
		return ""
	}
	if off > uint64(len(d.pool)) || n > uint64(len(d.pool))-off {
		d.fail()
		return ""
	}
	return unsafe.String(&d.pool[off], int(n))
}

// Len reads a slice/map length written by Enc.Len, reporting nil-ness.
// The cap guard keeps a corrupted length from provoking a huge
// allocation before the per-element reads run dry.
func (d *Dec) Len() (n int, isNil bool) {
	u := d.Uvarint()
	if d.err != nil || u == 0 {
		return 0, true
	}
	u--
	if u > uint64(len(d.buf)) { // every element costs >= 1 byte
		d.fail()
		return 0, true
	}
	return int(u), false
}
