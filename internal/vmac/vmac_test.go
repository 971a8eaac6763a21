package vmac

import (
	"testing"
	"testing/quick"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

func testClientAddr(b byte) mac.Address {
	return mac.Address{0x02, 0x00, 0x00, 0x00, 0x00, b}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	req := Request{UniAddr: testClientAddr(1), Nonce: 0xdeadbeefcafe, Count: 3}
	got, err := UnmarshalRequest(MarshalRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
	}
}

func TestRequestUnmarshalBadLength(t *testing.T) {
	if _, err := UnmarshalRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
}

func TestResponseMarshalRoundTrip(t *testing.T) {
	r := stats.NewRNG(1)
	resp := Response{
		UniAddr: testClientAddr(2),
		Nonce:   42,
		Virtual: []mac.Address{mac.RandomAddress(r), mac.RandomAddress(r), mac.RandomAddress(r)},
	}
	got, err := UnmarshalResponse(MarshalResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.UniAddr != resp.UniAddr || got.Nonce != resp.Nonce || len(got.Virtual) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range resp.Virtual {
		if got.Virtual[i] != resp.Virtual[i] {
			t.Fatalf("virtual address %d mismatch", i)
		}
	}
}

func TestResponseUnmarshalMalformed(t *testing.T) {
	if _, err := UnmarshalResponse([]byte{1}); err == nil {
		t.Fatal("short response accepted")
	}
	// Count byte claims 3 addresses but payload has none.
	bad := make([]byte, 15)
	bad[14] = 3
	if _, err := UnmarshalResponse(bad); err == nil {
		t.Fatal("inconsistent response accepted")
	}
}

func TestHandleRequestGrantsAddresses(t *testing.T) {
	ap := NewAP(APConfig{Seed: 1})
	phys := testClientAddr(3)
	resp, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 7, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Nonce != 7 {
		t.Fatalf("response nonce %d, want 7 (must echo request)", resp.Nonce)
	}
	if len(resp.Virtual) != 3 {
		t.Fatalf("granted %d interfaces, want 3", len(resp.Virtual))
	}
	seen := map[mac.Address]bool{phys: true}
	for _, a := range resp.Virtual {
		if seen[a] {
			t.Fatalf("duplicate or physical address granted: %v", a)
		}
		seen[a] = true
		if a[0]&0x02 == 0 || a.IsMulticast() {
			t.Fatalf("granted address %v has wrong bits", a)
		}
	}
	if ap.Outstanding() != 3 {
		t.Fatalf("outstanding = %d, want 3", ap.Outstanding())
	}
}

func TestHandleRequestCapsCount(t *testing.T) {
	ap := NewAP(APConfig{MaxPerClient: 3, Seed: 2})
	resp, err := ap.HandleRequest(Request{UniAddr: testClientAddr(4), Nonce: 1, Count: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Virtual) != 3 {
		t.Fatalf("granted %d, want cap of 3", len(resp.Virtual))
	}
	// Zero count is bumped to one.
	resp2, err := ap.HandleRequest(Request{UniAddr: testClientAddr(5), Nonce: 2, Count: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Virtual) != 1 {
		t.Fatalf("zero-count request granted %d, want 1", len(resp2.Virtual))
	}
}

func TestHandleRequestIdempotentRetry(t *testing.T) {
	// Over a lossy channel the response may be dropped and the client
	// retries with a fresh nonce; the AP must re-issue the SAME grant
	// (echoing the new nonce) rather than leak more pool addresses.
	ap := NewAP(APConfig{Seed: 3})
	phys := testClientAddr(6)
	first, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	retry, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 2, Count: 2})
	if err != nil {
		t.Fatalf("retry should be idempotent, got %v", err)
	}
	if retry.Nonce != 2 {
		t.Fatalf("retry nonce = %d, want fresh nonce 2", retry.Nonce)
	}
	if len(retry.Virtual) != len(first.Virtual) {
		t.Fatalf("retry granted %d addresses, want the original %d", len(retry.Virtual), len(first.Virtual))
	}
	for i := range first.Virtual {
		if retry.Virtual[i] != first.Virtual[i] {
			t.Fatal("retry changed the granted addresses")
		}
	}
	if ap.Outstanding() != 2 {
		t.Fatalf("retry leaked pool entries: outstanding = %d, want 2", ap.Outstanding())
	}
}

func TestTranslationBothWays(t *testing.T) {
	ap := NewAP(APConfig{Seed: 4})
	phys := testClientAddr(7)
	resp, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 1, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Uplink: any virtual source resolves to the physical address.
	for _, v := range resp.Virtual {
		got, ok := ap.TranslateUplink(v)
		if !ok || got != phys {
			t.Fatalf("uplink translation of %v = %v/%v", v, got, ok)
		}
	}
	// Downlink: interface index resolves to the granted address.
	for i, v := range resp.Virtual {
		got, ok := ap.VirtualOf(phys, i)
		if !ok || got != v {
			t.Fatalf("downlink translation of if %d = %v/%v, want %v", i, got, ok, v)
		}
	}
	if _, ok := ap.VirtualOf(phys, 99); ok {
		t.Fatal("out-of-range interface index resolved")
	}
	if _, ok := ap.TranslateUplink(testClientAddr(99)); ok {
		t.Fatal("unknown virtual address resolved")
	}
}

func TestReleaseRecycles(t *testing.T) {
	ap := NewAP(APConfig{Seed: 5})
	phys := testClientAddr(8)
	resp, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 1, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Release(phys); err != nil {
		t.Fatal(err)
	}
	if ap.Outstanding() != 0 {
		t.Fatalf("outstanding after release = %d, want 0", ap.Outstanding())
	}
	if _, ok := ap.TranslateUplink(resp.Virtual[0]); ok {
		t.Fatal("released virtual address still translates")
	}
	if !ap.UsesVirtual(phys) {
		// Released clients no longer use virtual interfaces.
	} else {
		t.Fatal("released client still flagged as virtual")
	}
	// A released client can reconfigure.
	if _, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 2, Count: 2}); err != nil {
		t.Fatalf("reconfigure after release: %v", err)
	}
	if err := ap.Release(testClientAddr(99)); err != ErrUnknownClient {
		t.Fatalf("release of unknown client: err = %v, want ErrUnknownClient", err)
	}
}

func TestClientNonceValidation(t *testing.T) {
	phys := testClientAddr(9)
	c := NewClient(phys)
	req := c.NewRequest(3, 1234)
	if req.Nonce != 1234 || req.UniAddr != phys || req.Count != 3 {
		t.Fatalf("request wrong: %+v", req)
	}

	r := stats.NewRNG(6)
	good := Response{UniAddr: phys, Nonce: 1234, Virtual: []mac.Address{mac.RandomAddress(r)}}
	badNonce := Response{UniAddr: phys, Nonce: 9999, Virtual: good.Virtual}
	badAddr := Response{UniAddr: testClientAddr(10), Nonce: 1234, Virtual: good.Virtual}

	if err := c.Install(badNonce); err != ErrNonceMismatch {
		t.Fatalf("stale nonce: err = %v, want ErrNonceMismatch", err)
	}
	if err := c.Install(badAddr); err != ErrWrongClient {
		t.Fatalf("wrong client: err = %v, want ErrWrongClient", err)
	}
	if err := c.Install(good); err != nil {
		t.Fatal(err)
	}
	if c.Interfaces() != 1 {
		t.Fatal("install did not take effect")
	}
	// Replay after completion is rejected.
	if err := c.Install(good); err != ErrNoPendingRequest {
		t.Fatalf("replayed response: err = %v, want ErrNoPendingRequest", err)
	}
}

func TestClientOwnershipAndTranslation(t *testing.T) {
	phys := testClientAddr(11)
	c := NewClient(phys)
	c.NewRequest(2, 1)
	r := stats.NewRNG(7)
	v1, v2 := mac.RandomAddress(r), mac.RandomAddress(r)
	if err := c.Install(Response{UniAddr: phys, Nonce: 1, Virtual: []mac.Address{v1, v2}}); err != nil {
		t.Fatal(err)
	}
	if !c.Owns(v1) || !c.Owns(v2) {
		t.Fatal("client does not own granted addresses")
	}
	if c.Owns(phys) {
		t.Fatal("physical address must not be in the virtual receive filter")
	}
	got, ok := c.TranslateDownlink(v1)
	if !ok || got != phys {
		t.Fatalf("downlink translation = %v/%v, want %v", got, ok, phys)
	}
	if _, ok := c.TranslateDownlink(mac.RandomAddress(r)); ok {
		t.Fatal("foreign address translated")
	}
	if a, ok := c.VirtualAt(0); !ok || a != v1 {
		t.Fatalf("VirtualAt(0) = %v/%v, want %v", a, ok, v1)
	}
	if _, ok := c.VirtualAt(5); ok {
		t.Fatal("out-of-range VirtualAt resolved")
	}
	c.Reset()
	if c.Interfaces() != 0 || c.Owns(v1) {
		t.Fatal("reset did not clear interfaces")
	}
}

// Property: for any client and requested count, granted addresses are
// unique, never the physical address, and translate both ways.
func TestGrantProperty(t *testing.T) {
	f := func(seed uint64, countRaw uint8, last byte) bool {
		ap := NewAP(APConfig{Seed: seed})
		phys := testClientAddr(last)
		count := int(countRaw%8) + 1
		resp, err := ap.HandleRequest(Request{UniAddr: phys, Nonce: 1, Count: uint8(count)})
		if err != nil {
			return false
		}
		seen := map[mac.Address]bool{phys: true}
		for i, v := range resp.Virtual {
			if seen[v] {
				return false
			}
			seen[v] = true
			back, ok := ap.TranslateUplink(v)
			if !ok || back != phys {
				return false
			}
			fwd, ok := ap.VirtualOf(phys, i)
			if !ok || fwd != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
