package mac

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"trafficreshape/internal/stats"
)

func TestAddressString(t *testing.T) {
	a := Address{0x00, 0x1b, 0x2c, 0x3d, 0x4e, 0x5f}
	want := "00:1b:2c:3d:4e:5f"
	if got := a.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseAddressRoundTrip(t *testing.T) {
	r := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		a := RandomAddress(r)
		parsed, err := ParseAddress(a.String())
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", a.String(), err)
		}
		if parsed != a {
			t.Fatalf("round trip lost data: %v != %v", parsed, a)
		}
	}
}

func TestParseAddressInvalid(t *testing.T) {
	for _, s := range []string{"", "00:11:22:33:44", "zz:11:22:33:44:55", "banana"} {
		if _, err := ParseAddress(s); err == nil {
			t.Errorf("ParseAddress(%q) should fail", s)
		}
	}
}

func TestRandomAddressBits(t *testing.T) {
	r := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		a := RandomAddress(r)
		if a.IsMulticast() {
			t.Fatalf("random address %v has multicast bit set", a)
		}
		if a[0]&0x02 == 0 {
			t.Fatalf("random address %v is not locally administered", a)
		}
	}
}

func TestBroadcastAndZero(t *testing.T) {
	if !Broadcast.IsMulticast() {
		t.Error("broadcast classification wrong")
	}
	if Zero.IsMulticast() {
		t.Error("zero classification wrong")
	}
}

func TestCollisionProbability(t *testing.T) {
	if p := CollisionProbability(0); p != 0 {
		t.Errorf("P(collision | 0 addrs) = %v, want 0", p)
	}
	if p := CollisionProbability(1); p != 0 {
		t.Errorf("P(collision | 1 addr) = %v, want 0", p)
	}
	// Birthday approximation: p ≈ n(n-1)/2 / 2^48 for small n.
	for _, n := range []int{2, 10, 100, 1000} {
		got := CollisionProbability(n)
		approx := float64(n) * float64(n-1) / 2 / float64(uint64(1)<<48)
		if math.Abs(got-approx)/approx > 0.01 {
			t.Errorf("P(collision | %d) = %v, want ≈ %v", n, got, approx)
		}
	}
	// Monotone in n.
	prev := 0.0
	for n := 2; n < 2000; n += 97 {
		p := CollisionProbability(n)
		if p < prev {
			t.Fatalf("collision probability not monotone at n=%d", n)
		}
		prev = p
	}
	// The paper's claim: collisions are negligible in small WLANs.
	if p := CollisionProbability(50); p > 1e-10 {
		t.Errorf("P(collision | 50 addrs) = %v, should be negligible", p)
	}
}

func TestPoolAllocateUnique(t *testing.T) {
	p := NewPool(3, 0)
	addrs, err := p.AllocateN(500)
	if err != nil {
		t.Fatalf("AllocateN: %v", err)
	}
	seen := make(map[Address]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("pool returned duplicate address %v", a)
		}
		seen[a] = true
	}
	if len(p.inUse) != 500 {
		t.Errorf("outstanding = %d, want 500", len(p.inUse))
	}
}

func TestPoolReleaseRecycles(t *testing.T) {
	p := NewPool(4, 0)
	addrs, err := p.AllocateN(1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.inUse[addrs[0]] {
		t.Fatal("allocated address not in use")
	}
	p.ReleaseAll(addrs)
	if p.inUse[addrs[0]] {
		t.Fatal("released address still in use")
	}
	if len(p.inUse) != 0 {
		t.Fatal("pool should be empty after release")
	}
	// Double release is harmless.
	p.ReleaseAll(addrs)
}

func TestPoolCapacity(t *testing.T) {
	p := NewPool(5, 3)
	for i := 0; i < 3; i++ {
		if _, err := p.AllocateN(1); err != nil {
			t.Fatalf("AllocateN %d: %v", i, err)
		}
	}
	if _, err := p.AllocateN(1); err != ErrPoolExhausted {
		t.Fatalf("AllocateN beyond capacity: err = %v, want ErrPoolExhausted", err)
	}
}

func TestPoolAllocateNAtomic(t *testing.T) {
	p := NewPool(6, 4)
	got, err := p.AllocateN(3)
	if err != nil || len(got) != 3 {
		t.Fatalf("AllocateN(3) = %v, %v", got, err)
	}
	// Requesting 2 more exceeds capacity; nothing should leak.
	if _, err := p.AllocateN(2); err == nil {
		t.Fatal("AllocateN beyond capacity should fail")
	}
	if len(p.inUse) != 3 {
		t.Fatalf("failed AllocateN leaked: outstanding = %d, want 3", len(p.inUse))
	}
}

func TestPoolReserve(t *testing.T) {
	p := NewPool(7, 0)
	phys := Address{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	p.Reserve(phys)
	if !p.inUse[phys] {
		t.Fatal("reserved address not in use")
	}
	addrs, err := p.AllocateN(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if a == phys {
			t.Fatal("pool minted a reserved address")
		}
	}
}

func TestPoolReleaseAll(t *testing.T) {
	p := NewPool(8, 0)
	addrs, err := p.AllocateN(5)
	if err != nil {
		t.Fatal(err)
	}
	p.ReleaseAll(addrs)
	if len(p.inUse) != 0 {
		t.Fatalf("ReleaseAll left %d outstanding", len(p.inUse))
	}
}

func TestPoolConcurrentAllocation(t *testing.T) {
	p := NewPool(10, 0)
	const workers = 8
	const perWorker = 100
	results := make(chan Address, workers*perWorker)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				a, err := p.AllocateN(1)
				if err != nil {
					t.Errorf("AllocateN: %v", err)
					break
				}
				results <- a[0]
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(results)
	seen := make(map[Address]bool)
	for a := range results {
		if seen[a] {
			t.Fatalf("concurrent allocation produced duplicate %v", a)
		}
		seen[a] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d unique addresses, want %d", len(seen), workers*perWorker)
	}
}

// Property: any allocated address is unicast, locally administered,
// and reported in use until released.
func TestPoolLifecycleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewPool(seed, 0)
		addrs, err := p.AllocateN(1)
		if err != nil {
			return false
		}
		a := addrs[0]
		if a.IsMulticast() || a[0]&0x02 == 0 {
			return false
		}
		if !p.inUse[a] {
			return false
		}
		p.ReleaseAll(addrs)
		return !p.inUse[a]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare orders addresses exactly as their String forms
// compare, so sorting by Compare reproduces the string sort. Random
// pairs rarely share a prefix, so half the pairs copy a random-length
// prefix of a into b to exercise the later octets and equality.
func TestAddressCompareMatchesStringOrder(t *testing.T) {
	r := stats.NewRNG(11)
	for i := 0; i < 5000; i++ {
		var a, b Address
		for j := range a {
			a[j] = byte(r.Intn(256))
			b[j] = byte(r.Intn(256))
		}
		if i%2 == 1 {
			copy(b[:], a[:r.Intn(len(a)+1)])
		}
		if got, want := a.Compare(b), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("%v.Compare(%v) = %d, string order %d", a, b, got, want)
		}
	}
}
