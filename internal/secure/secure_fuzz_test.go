package secure

import "testing"

// FuzzOpen feeds arbitrary boxes and associated data to Open, which
// reads sealed configuration payloads off the air. It must never
// panic, and a box it accepts must yield exactly len(box) - Overhead()
// plaintext bytes. The seeds are genuine Seal outputs, so the accept
// path runs on every ordinary test pass too. Open keeps the last
// counter it accepted, so each input gets a fresh receiving Sealer.
func FuzzOpen(f *testing.F) {
	key := DeriveKey([]byte("master"), "sta=02:00:00:00:00:01")
	tx, err := NewSealer(key, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []struct{ plain, ad string }{
		{"", ""},
		{"configuration request", ""},
		{"configuration response with three addresses", "02:00:00:00:00:01"},
	} {
		f.Add(tx.Seal([]byte(m.plain), []byte(m.ad)), []byte(m.ad))
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, box, ad []byte) {
		rx, err := NewSealer(key, 1)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := rx.Open(box, ad)
		if err != nil {
			if plain != nil {
				t.Fatalf("rejected box returned %d plaintext bytes", len(plain))
			}
			return
		}
		if want := len(box) - rx.Overhead(); len(plain) != want {
			t.Fatalf("accepted %d-byte box yielded %d plaintext bytes, want %d", len(box), len(plain), want)
		}
	})
}
