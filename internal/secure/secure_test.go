package secure

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDeriveKeyDeterministic(t *testing.T) {
	a := DeriveKey([]byte("master"), "sta=aa ap=bb")
	b := DeriveKey([]byte("master"), "sta=aa ap=bb")
	if a != b {
		t.Fatal("same inputs, different keys")
	}
	c := DeriveKey([]byte("master"), "sta=aa ap=cc")
	if a == c {
		t.Fatal("different context, same key")
	}
	d := DeriveKey([]byte("other"), "sta=aa ap=bb")
	if a == d {
		t.Fatal("different master, same key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, err := NewSealer(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewSealer(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("request 3 virtual interfaces")
	ad := []byte("frame-header")
	sealed := tx.Seal(msg, ad)
	got, err := rx.Open(sealed, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, _ := NewSealer(k, 1)
	rx, _ := NewSealer(k, 1)
	sealed := tx.Seal([]byte("hello"), nil)
	sealed[len(sealed)-1] ^= 0x01
	if _, err := rx.Open(sealed, nil); err != ErrAuthFailed {
		t.Fatalf("tampered message accepted: %v", err)
	}
}

func TestOpenRejectsWrongAD(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, _ := NewSealer(k, 1)
	rx, _ := NewSealer(k, 1)
	sealed := tx.Seal([]byte("hello"), []byte("ad-1"))
	if _, err := rx.Open(sealed, []byte("ad-2")); err == nil {
		t.Fatal("wrong associated data accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	tx, _ := NewSealer(DeriveKey([]byte("m"), "a"), 1)
	rx, _ := NewSealer(DeriveKey([]byte("m"), "b"), 1)
	sealed := tx.Seal([]byte("hello"), nil)
	if _, err := rx.Open(sealed, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	rx, _ := NewSealer(k, 1)
	if _, err := rx.Open([]byte{1, 2, 3}, nil); err != ErrAuthFailed {
		t.Fatalf("truncated ciphertext: err = %v, want ErrAuthFailed", err)
	}
}

// A receiving Sealer opens each box once: a replayed box, or an older
// one delivered after a newer, is rejected.
func TestOpenRejectsReplay(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, _ := NewSealer(k, 1)
	rx, _ := NewSealer(k, 1)
	first := tx.Seal([]byte("request"), nil)
	if _, err := rx.Open(first, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(first, nil); err != ErrReplay {
		t.Fatalf("replayed box: err = %v, want ErrReplay", err)
	}
	second, third := tx.Seal([]byte("retry"), nil), tx.Seal([]byte("retry 2"), nil)
	if _, err := rx.Open(third, nil); err != nil {
		t.Fatalf("fresh box after a replay: %v", err)
	}
	if _, err := rx.Open(second, nil); err != ErrReplay {
		t.Fatalf("older box after a newer one: err = %v, want ErrReplay", err)
	}
}

// A box sealed for the other direction of the association, under the
// same key, is rejected even though it authenticates.
func TestOpenRejectsOtherDirection(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, _ := NewSealer(k, 2)
	rx, _ := NewSealer(k, 1)
	if _, err := rx.Open(tx.Seal([]byte("response"), nil), nil); err != ErrReplay {
		t.Fatalf("other direction's box: err = %v, want ErrReplay", err)
	}
}

func TestNoncesNeverRepeat(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	tx, _ := NewSealer(k, 1)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		sealed := tx.Seal([]byte("x"), nil)
		nonce := string(sealed[:12])
		if seen[nonce] {
			t.Fatal("nonce reuse detected")
		}
		seen[nonce] = true
	}
}

func TestDirectionPrefixSeparatesNonces(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	a, _ := NewSealer(k, 1)
	b, _ := NewSealer(k, 2)
	na := a.Seal([]byte("x"), nil)[:12]
	nb := b.Seal([]byte("x"), nil)[:12]
	if bytes.Equal(na, nb) {
		t.Fatal("different directions produced the same nonce")
	}
}

func TestOverheadConstant(t *testing.T) {
	k := DeriveKey([]byte("m"), "ctx")
	s, _ := NewSealer(k, 1)
	want := s.Overhead()
	for _, n := range []int{0, 1, 100, 1000} {
		sealed := s.Seal(make([]byte, n), nil)
		if got := len(sealed) - n; got != want {
			t.Fatalf("overhead for %d-byte payload = %d, want %d", n, got, want)
		}
	}
}

// Property: any payload round-trips under matching sealers.
func TestSealOpenProperty(t *testing.T) {
	k := DeriveKey([]byte("prop"), "ctx")
	f := func(payload []byte, ad []byte) bool {
		tx, err := NewSealer(k, 7)
		if err != nil {
			return false
		}
		rx, err := NewSealer(k, 7)
		if err != nil {
			return false
		}
		got, err := rx.Open(tx.Seal(payload, ad), ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
