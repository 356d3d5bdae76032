package artifact

import (
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter("test/v1")
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

func TestInterningSharesPool(t *testing.T) {
	w := NewWriter("test/v1")
	e := w.Section("s")
	e.String("shared-value")
	e.String("shared-value")
	data := w.Bytes()
	// A second writer with a distinct string must produce a longer pool.
	w2 := NewWriter("test/v1")
	e2 := w2.Section("s")
	e2.String("shared-value")
	e2.String("other-value!")
	if len(w2.Bytes()) <= len(data) {
		t.Error("distinct strings should grow the document; duplicates should not")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	w := NewWriter("test/v1")
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

func FuzzOpen(f *testing.F) {
	w := NewWriter("fuzz/v1")
	e := w.Section("s")
	e.String("seed")
	e.Uvarint(7)
	f.Add(w.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(data)
		if err != nil {
			return
		}
		// A document that validates must be fully decodable without panics.
		for _, name := range r.names {
			d, err := r.Section(name)
			if err != nil {
				t.Fatal(err)
			}
			for d.Err() == nil && d.pos < len(d.buf) {
				_ = d.String()
			}
		}
	})
}
