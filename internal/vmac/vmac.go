// Package vmac implements the virtual MAC interface layer of §III-B:
// the four-step configuration protocol of Figure 2, by which a client
// obtains virtual MAC addresses from the AP's pool over an encrypted
// exchange, and the address translation of Figure 3 that makes the
// whole mechanism transparent to upper layers and to remote servers.
package vmac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"trafficreshape/internal/mac"
)

// MaxInterfaces bounds a single client's virtual interface count; the
// paper uses 2–5 (Table V) and recommends 3.
const MaxInterfaces = 16

// Request is the client's step-1 message: (encrypted)
// {uni_addr | nonce}. uni_addr is the client's unique physical MAC
// address; Count is the desired number of virtual interfaces (the AP
// may grant fewer under resource pressure).
type Request struct {
	UniAddr mac.Address
	Nonce   uint64
	Count   uint8
}

// Response is the AP's step-4 message: (encrypted)
// {uni_addr | nonce, virtual MAC addresses}.
type Response struct {
	UniAddr mac.Address
	Nonce   uint64
	Virtual []mac.Address
}

// MarshalRequest encodes a Request for sealing.
func MarshalRequest(r Request) []byte {
	buf := make([]byte, 6+8+1)
	copy(buf[0:6], r.UniAddr[:])
	binary.BigEndian.PutUint64(buf[6:14], r.Nonce)
	buf[14] = r.Count
	return buf
}

// UnmarshalRequest decodes a Request.
func UnmarshalRequest(buf []byte) (Request, error) {
	if len(buf) != 15 {
		return Request{}, fmt.Errorf("vmac: request is %d bytes, want 15", len(buf))
	}
	var r Request
	copy(r.UniAddr[:], buf[0:6])
	r.Nonce = binary.BigEndian.Uint64(buf[6:14])
	r.Count = buf[14]
	return r, nil
}

// MarshalResponse encodes a Response for sealing.
func MarshalResponse(r Response) []byte {
	buf := make([]byte, 6+8+1+6*len(r.Virtual))
	copy(buf[0:6], r.UniAddr[:])
	binary.BigEndian.PutUint64(buf[6:14], r.Nonce)
	buf[14] = byte(len(r.Virtual))
	for i, a := range r.Virtual {
		copy(buf[15+6*i:], a[:])
	}
	return buf
}

// UnmarshalResponse decodes a Response.
func UnmarshalResponse(buf []byte) (Response, error) {
	if len(buf) < 15 {
		return Response{}, fmt.Errorf("vmac: response too short (%d bytes)", len(buf))
	}
	var r Response
	copy(r.UniAddr[:], buf[0:6])
	r.Nonce = binary.BigEndian.Uint64(buf[6:14])
	n := int(buf[14])
	if len(buf) != 15+6*n {
		return Response{}, fmt.Errorf("vmac: response length %d does not match %d addresses", len(buf), n)
	}
	r.Virtual = make([]mac.Address, n)
	for i := range r.Virtual {
		copy(r.Virtual[i][:], buf[15+6*i:])
	}
	return r, nil
}

// --- AP side -----------------------------------------------------------------

// APConfig tunes the AP-side allocator.
type APConfig struct {
	// MaxPerClient caps the interfaces granted to one client
	// ("determined by the privacy requirement and the resource
	// availability", §III-B1). Zero means the paper default of 3…5.
	MaxPerClient int
	// Seed drives the address pool's deterministic draws.
	Seed uint64
}

// AP is the access-point side of the virtual interface layer: it owns
// the MAC address pool, grants virtual addresses, and translates
// between virtual and physical addresses on the data path.
type AP struct {
	mu   sync.Mutex
	pool *mac.Pool
	cfg  APConfig
	// virtualToPhys resolves any granted virtual address to the
	// owning client's physical address (uplink translation).
	virtualToPhys map[mac.Address]mac.Address
	// physToVirtual lists a client's granted addresses in grant
	// order (downlink scheduling indexes into this slice).
	physToVirtual map[mac.Address][]mac.Address
}

// NewAP builds the AP-side allocator.
func NewAP(cfg APConfig) *AP {
	if cfg.MaxPerClient <= 0 {
		cfg.MaxPerClient = 5
	}
	if cfg.MaxPerClient > MaxInterfaces {
		cfg.MaxPerClient = MaxInterfaces
	}
	return &AP{
		pool:          mac.NewPool(cfg.Seed),
		cfg:           cfg,
		virtualToPhys: make(map[mac.Address]mac.Address),
		physToVirtual: make(map[mac.Address][]mac.Address),
	}
}

// ErrUnknownClient is returned when releasing a client that holds no
// virtual interfaces.
var ErrUnknownClient = errors.New("vmac: client has no virtual interfaces")

// HandleRequest performs steps 2–3 of Figure 2: choose the number of
// interfaces I, draw unused addresses from the pool, and build the
// response echoing the request nonce. A request from an
// already-configured client re-issues the existing grant under the
// fresh nonce: over a lossy channel the response may be dropped and
// retried, and re-granting new addresses on every retry would leak
// pool entries.
func (ap *AP) HandleRequest(req Request) (Response, error) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	if addrs, ok := ap.physToVirtual[req.UniAddr]; ok {
		return Response{UniAddr: req.UniAddr, Nonce: req.Nonce, Virtual: addrs}, nil
	}
	count := int(req.Count)
	if count < 1 {
		count = 1
	}
	if count > ap.cfg.MaxPerClient {
		count = ap.cfg.MaxPerClient
	}
	// The client's own burned-in address can never be granted.
	ap.pool.Reserve(req.UniAddr)
	addrs, err := ap.pool.AllocateN(count)
	if err != nil {
		return Response{}, fmt.Errorf("vmac: pool: %w", err)
	}
	for _, a := range addrs {
		ap.virtualToPhys[a] = req.UniAddr
	}
	ap.physToVirtual[req.UniAddr] = addrs
	return Response{UniAddr: req.UniAddr, Nonce: req.Nonce, Virtual: addrs}, nil
}

// Release recycles a client's virtual addresses ("The AP is able to
// recycle and dynamically configure virtual MAC interfaces", §III-B1).
func (ap *AP) Release(phys mac.Address) error {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	addrs, ok := ap.physToVirtual[phys]
	if !ok {
		return ErrUnknownClient
	}
	for _, a := range addrs {
		delete(ap.virtualToPhys, a)
	}
	ap.pool.ReleaseAll(addrs)
	delete(ap.physToVirtual, phys)
	return nil
}

// TranslateUplink maps a virtual source address back to the client's
// unique physical address, the Figure 3 uplink rewrite that keeps ARP
// and remote servers oblivious.
func (ap *AP) TranslateUplink(virtual mac.Address) (mac.Address, bool) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	phys, ok := ap.virtualToPhys[virtual]
	return phys, ok
}

// VirtualOf returns the i-th virtual address granted to phys, for the
// downlink rewrite after the reshaping algorithm picks interface i.
func (ap *AP) VirtualOf(phys mac.Address, i int) (mac.Address, bool) {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	addrs, ok := ap.physToVirtual[phys]
	if !ok || i < 0 || i >= len(addrs) {
		return mac.Zero, false
	}
	return addrs[i], true
}

// InterfacesOf returns how many virtual interfaces phys holds
// (0 if unconfigured).
func (ap *AP) InterfacesOf(phys mac.Address) int {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return len(ap.physToVirtual[phys])
}

// UsesVirtual reports whether phys has virtual interfaces configured —
// the AP's downlink check in Figure 3 ("AP first checks whether the
// destination uses virtual interfaces or not").
func (ap *AP) UsesVirtual(phys mac.Address) bool {
	return ap.InterfacesOf(phys) > 0
}

// Outstanding returns the number of live virtual addresses across all
// clients, for the §V-B scalability accounting.
func (ap *AP) Outstanding() int {
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return len(ap.virtualToPhys)
}

// --- Client side --------------------------------------------------------------

// Client is the station-side interface table: it validates the
// response nonce, installs the granted addresses, and performs the
// client half of the Figure 3 translation (receive on any virtual
// address, hand packets to upper layers under the physical address).
type Client struct {
	mu      sync.Mutex
	phys    mac.Address
	nonce   uint64
	pending bool
	virtual []mac.Address
	index   map[mac.Address]int
}

// NewClient builds a client endpoint for the given physical address.
func NewClient(phys mac.Address) *Client {
	return &Client{phys: phys, index: make(map[mac.Address]int)}
}

// NewRequest produces the step-1 request. nonce must be fresh per
// attempt; the caller draws it from its RNG or entropy source.
func (c *Client) NewRequest(count int, nonce uint64) Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nonce = nonce
	c.pending = true
	if count < 1 {
		count = 1
	}
	if count > MaxInterfaces {
		count = MaxInterfaces
	}
	return Request{UniAddr: c.phys, Nonce: nonce, Count: uint8(count)}
}

// Errors returned by the client endpoint.
var (
	ErrNoPendingRequest = errors.New("vmac: no configuration request outstanding")
	ErrNonceMismatch    = errors.New("vmac: response nonce does not match request")
	ErrWrongClient      = errors.New("vmac: response addressed to another client")
)

// Install validates and installs a configuration response: "it checks
// if the nonce corresponds to the request that it has sent" (§III-B1).
func (c *Client) Install(resp Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pending {
		return ErrNoPendingRequest
	}
	if resp.UniAddr != c.phys {
		return ErrWrongClient
	}
	if resp.Nonce != c.nonce {
		return ErrNonceMismatch
	}
	if len(resp.Virtual) == 0 {
		return errors.New("vmac: response grants no interfaces")
	}
	c.virtual = append([]mac.Address(nil), resp.Virtual...)
	c.index = make(map[mac.Address]int, len(c.virtual))
	for i, a := range c.virtual {
		c.index[a] = i
	}
	c.pending = false
	return nil
}

// Interfaces returns the number of installed virtual interfaces.
func (c *Client) Interfaces() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.virtual)
}

// VirtualAt returns the address of interface i.
func (c *Client) VirtualAt(i int) (mac.Address, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.virtual) {
		return mac.Zero, false
	}
	return c.virtual[i], true
}

// Owns reports whether addr is one of the client's virtual addresses —
// the modified MAC receive filter of Figure 3 ("receive all the
// packets whose destination address is one of its virtual MAC
// addresses").
func (c *Client) Owns(addr mac.Address) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[addr]
	return ok
}

// TranslateDownlink maps a received virtual destination back to the
// physical address for delivery to upper layers.
func (c *Client) TranslateDownlink(virtual mac.Address) (mac.Address, bool) {
	if !c.Owns(virtual) {
		return mac.Zero, false
	}
	return c.phys, true
}

// Reset drops the installed interfaces (e.g. after the AP recycles
// them).
func (c *Client) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.virtual = nil
	c.index = make(map[mac.Address]int)
	c.pending = false
}
