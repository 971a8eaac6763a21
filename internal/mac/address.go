// Package mac models the 802.11 MAC-layer objects the paper's design
// is built from: 48-bit MAC addresses, management/control/data frames,
// their wire encoding, and the AP-side pool of unused MAC addresses
// that backs virtual-interface assignment (§III-B1 of the paper).
package mac

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"

	"trafficreshape/internal/stats"
)

// Address is a 48-bit IEEE 802 MAC address.
type Address [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Address{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Zero is the all-zero (invalid) address.
var Zero = Address{}

// String renders the address in the conventional colon form.
func (a Address) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// Compare orders addresses byte by byte, returning -1, 0 or +1. String
// renders every octet as two lowercase hex digits, so this is also the
// order of the rendered strings, without formatting them.
func (a Address) Compare(b Address) int { return bytes.Compare(a[:], b[:]) }

// RandomAddress mints a random unicast, locally-administered address.
// Virtual MAC addresses minted by the AP always set the
// locally-administered bit so they can never collide with burned-in
// vendor addresses.
func RandomAddress(r *stats.RNG) Address {
	var a Address
	v := r.Uint64()
	for i := 0; i < 6; i++ {
		a[i] = byte(v >> (8 * i))
	}
	a[0] &^= 0x01 // unicast
	a[0] |= 0x02  // locally administered
	return a
}

// CollisionProbability returns the probability that at least two of n
// randomly chosen 48-bit MAC addresses collide — the birthday-paradox
// quantity the paper cites when arguing random assignment is safe in
// small WLANs: 1 - 2^48! / (2^48^n (2^48-n)!).
//
// Computed in log space so it is stable for any realistic n.
func CollisionProbability(n int) float64 {
	if n <= 1 {
		return 0
	}
	const space = 1 << 48
	// log P(no collision) = Σ_{k=1}^{n-1} log(1 - k/2^48)
	logNoColl := 0.0
	for k := 1; k < n; k++ {
		logNoColl += math.Log1p(-float64(k) / float64(space))
	}
	return -math.Expm1(logNoColl)
}

// errPoolExhausted is returned when 1024 draws in a row hit addresses
// already in use.
var errPoolExhausted = errors.New("mac: address pool exhausted")

// Pool is the AP-side MAC address pool of §III-B1. The AP draws unused
// addresses for new virtual interfaces and recycles them when a client
// releases its interfaces or disassociates. Pool is safe for
// concurrent use: a production AP services many clients at once.
type Pool struct {
	mu    sync.Mutex
	rng   *stats.RNG
	inUse map[Address]bool
}

// NewPool creates a pool over the full 2^48 space, seeded for
// deterministic draws.
func NewPool(seed uint64) *Pool {
	return &Pool{
		rng:   stats.NewRNG(seed),
		inUse: make(map[Address]bool),
	}
}

// Reserve marks an externally owned address (e.g. a client's physical
// burned-in address) as in use so it can never be minted as a virtual
// address.
func (p *Pool) Reserve(a Address) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse[a] = true
}

func (p *Pool) allocateLocked() (Address, error) {
	// 2^48 is astronomically larger than any WLAN; a handful of
	// retries suffices even in adversarially full test pools.
	for i := 0; i < 1024; i++ {
		a := RandomAddress(p.rng)
		if !p.inUse[a] {
			p.inUse[a] = true
			return a, nil
		}
	}
	return Zero, errPoolExhausted
}

// AllocateN draws n unused addresses atomically; on failure nothing is
// allocated.
func (p *Pool) AllocateN(n int) ([]Address, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Address, 0, n)
	for i := 0; i < n; i++ {
		a, err := p.allocateLocked()
		if err != nil {
			for _, got := range out {
				delete(p.inUse, got)
			}
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ReleaseAll returns every address in addrs to the pool. Releasing an
// address that is not in use is a no-op: recycle messages may be
// duplicated in flight.
func (p *Pool) ReleaseAll(addrs []Address) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range addrs {
		delete(p.inUse, a)
	}
}
