package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter("test/v1", 0)
	e := w.Section("main")
	e.Uvarint(42)
	e.Int(-7)
	e.Bool(true)
	e.String("hello")
	e.String("")      // empty string
	e.String("hello") // interned duplicate
	e.Len(0, true)    // nil slice
	e.Len(0, false)   // empty slice
	e.Len(3, false)
	aux := w.Section("aux")
	aux.String("hello") // cross-section interning
	data := w.Bytes()

	r, err := OpenSchema(data, "test/v1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("main")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	s1 := d.String()
	if s1 != "hello" {
		t.Errorf("String = %q", s1)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	s2 := d.String()
	if s2 != "hello" {
		t.Errorf("String dup = %q", s2)
	}
	if n, isNil := d.Len(); n != 0 || !isNil {
		t.Errorf("nil Len = %d,%v", n, isNil)
	}
	if n, isNil := d.Len(); n != 0 || isNil {
		t.Errorf("empty Len = %d,%v", n, isNil)
	}
	if n, isNil := d.Len(); n != 3 || isNil {
		t.Errorf("Len = %d,%v", n, isNil)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if ad, err := r.Section("aux"); err != nil || ad.String() != "hello" {
		t.Fatalf("aux section: %v", err)
	}
	if _, err := r.Section("missing"); err == nil {
		t.Error("missing section should error")
	}
}

// TestFloat64Bits round-trips the values a lossy float codec would bend
// (signed zero, a NaN payload, the infinities, the smallest subnormal, the
// largest finite value) and compares them by their bits.
func TestFloat64Bits(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	w := NewWriter("test/v1", 0)
	e := w.Section("f")
	for _, v := range vals {
		e.Float64(v)
	}
	e.Uvarint(1)
	r, err := Open(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if got := d.Float64(); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("Float64 = %#x, want %#x", math.Float64bits(got), math.Float64bits(v))
		}
	}
	if d.Uvarint() != 1 || d.Err() != nil {
		t.Fatalf("trailing varint lost: %v", d.Err())
	}

	// A 7-byte tail is a short read: the error sticks and every later read
	// returns zero.
	d = &Dec{buf: []byte{1, 2, 3, 4, 5, 6, 7}}
	if got := d.Float64(); got != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("short Float64 = %v, err %v", got, d.Err())
	}
	if d.Float64() != 0 || d.Uvarint() != 0 || d.Int() != 0 || d.Bool() || d.String() != "" {
		t.Error("read after a short Float64 returned non-zero")
	}
	if n, isNil := d.Len(); n != 0 || !isNil {
		t.Errorf("Len after a short Float64 = %d,%v", n, isNil)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("sticky error = %v", d.Err())
	}
}

func TestInterningSharesPool(t *testing.T) {
	w := NewWriter("test/v1", 0)
	e := w.Section("s")
	e.String("shared-value")
	e.String("shared-value")
	data := w.Bytes()
	// A second writer with a distinct string must produce a longer pool.
	w2 := NewWriter("test/v1", 0)
	e2 := w2.Section("s")
	e2.String("shared-value")
	e2.String("other-value!")
	if len(w2.Bytes()) <= len(data) {
		t.Error("distinct strings should grow the document; duplicates should not")
	}
	// Sizing the pool's index up front changes no byte.
	w3 := NewWriter("test/v1", 64)
	e3 := w3.Section("s")
	e3.String("shared-value")
	e3.String("shared-value")
	if !bytes.Equal(w3.Bytes(), data) {
		t.Error("a presized writer wrote other bytes")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	w := NewWriter("test/v1", 0)
	e := w.Section("s")
	for i := 0; i < 32; i++ {
		e.String(strings.Repeat("x", i))
		e.Uvarint(uint64(i))
	}
	data := w.Bytes()
	if _, err := Open(data); err != nil {
		t.Fatalf("pristine document: %v", err)
	}

	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Open(bad); err == nil {
			t.Error("corrupted magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 5, len(Magic), len(data) / 2, len(data) - 1} {
			if _, err := Open(data[:n]); err == nil {
				t.Errorf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{45, len(data) / 2, len(data) - 2} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x01
			if _, err := Open(bad); err == nil {
				t.Errorf("bit flip at %d accepted", pos)
			}
		}
	})
	t.Run("schema", func(t *testing.T) {
		if _, err := OpenSchema(data, "test/v2"); err == nil {
			t.Error("wrong schema accepted")
		}
	})
}

func TestDecSticksOnMalformedSection(t *testing.T) {
	// A decoder over garbage section bytes must go sticky-error, not panic.
	d := &Dec{buf: []byte{0xff, 0xff, 0xff}, pool: nil}
	for i := 0; i < 10; i++ {
		_ = d.Uvarint()
		_ = d.String()
		_, _ = d.Len()
		_ = d.Bool()
	}
	if d.Err() == nil {
		t.Error("expected sticky decode error")
	}
}

// reseal rewrites the header hash of a document-shaped input over its
// bytes [40:], so a mutated input gets past Open's checksum to the section
// table, the varints and the pool offsets. Inputs too short for a header
// or without the magic are returned as they are.
func reseal(data []byte) []byte {
	const hdr = len(Magic) + sha256.Size
	if len(data) < hdr || string(data[:len(Magic)]) != Magic {
		return data
	}
	out := append([]byte(nil), data...)
	sum := sha256.Sum256(out[hdr:])
	copy(out[len(Magic):], sum[:])
	return out
}

// FuzzOpen feeds each input to Open twice: as it is, which exercises the
// header and checksum checks, and resealed, which reaches the section
// table and every primitive decoder behind them.
func FuzzOpen(f *testing.F) {
	w := NewWriter("fuzz/v1", 0)
	e := w.Section("s")
	e.String("seed")
	e.Uvarint(7)
	e.Float64(-1.5)
	e.Len(2, false)
	e.Bool(true)
	f.Add(w.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			r, err := Open(in)
			if err != nil {
				continue
			}
			// A document that validates must be fully decodable without
			// panics, whatever the reads it is decoded with.
			for _, name := range r.names {
				d, err := r.Section(name)
				if err != nil {
					t.Fatal(err)
				}
				for d.Err() == nil && d.pos < len(d.buf) {
					switch d.buf[d.pos] % 5 {
					case 0:
						_ = d.String()
					case 1:
						_ = d.Float64()
					case 2:
						_, _ = d.Len()
					case 3:
						_ = d.Int()
					default:
						_ = d.Bool()
					}
				}
			}
		}
	})
}
