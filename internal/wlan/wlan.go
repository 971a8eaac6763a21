// Package wlan wires the substrate layers into a working WLAN: an
// access point and stations exchanging 802.11 frames over the
// simulated medium, with the paper's virtual-interface machinery on
// the data path. It exists so the configuration protocol (Figure 2)
// and the translated data path (Figure 3) run end to end exactly as
// described, not just as isolated unit logic.
package wlan

import (
	"errors"
	"fmt"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/radio"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/secure"
	"trafficreshape/internal/sim"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// Network owns the shared simulation state: kernel, medium, and AP.
type Network struct {
	Kernel   *sim.Kernel
	Medium   *radio.Medium
	AP       *AP
	rng      *stats.RNG
	stations []*Station
}

// Config tunes the network.
type Config struct {
	Seed uint64
}

// apChannel is the data channel the AP and its stations use.
const apChannel = 6

// NewNetwork builds a network with one AP at the origin.
func NewNetwork(cfg Config) *Network {
	root := stats.NewRNG(cfg.Seed)
	k := sim.New()
	medium := radio.NewMedium(radio.DefaultPathLoss(), root.Split().Uint64())
	n := &Network{Kernel: k, Medium: medium, rng: root}
	n.AP = newAP(n)
	return n
}

// masterSecret stands in for the association-time pairwise secret.
// The simulation needs both endpoints to agree; secrecy against the
// in-sim adversary holds because the sniffer never reads payloads.
const masterSecret = "wlan-association-psk"

// AP is the access point: it associates stations, answers virtual-
// interface configuration requests, and reshapes downlink traffic.
type AP struct {
	net     *Network
	Addr    mac.Address
	Channel int
	vm      *vmac.AP
	seq     mac.SequenceCounter
	// downlinkSched maps a client's physical address to the AP-side
	// reshaping scheduler for its downlink.
	downlinkSched map[mac.Address]reshape.Scheduler
	associated    map[mac.Address]*Station
	rxSealers     map[mac.Address]*secure.Sealer
	txSealers     map[mac.Address]*secure.Sealer
	// Delivered counts data frames handed to clients, by physical
	// address, for tests.
	Delivered map[mac.Address]int
}

func newAP(n *Network) *AP {
	ap := &AP{
		net:     n,
		Addr:    mac.RandomAddress(n.rng),
		Channel: apChannel,
		vm: vmac.NewAP(vmac.APConfig{
			Seed: n.rng.Split().Uint64(),
		}),
		downlinkSched: make(map[mac.Address]reshape.Scheduler),
		associated:    make(map[mac.Address]*Station),
		rxSealers:     make(map[mac.Address]*secure.Sealer),
		txSealers:     make(map[mac.Address]*secure.Sealer),
		Delivered:     make(map[mac.Address]int),
	}
	n.Medium.Subscribe(ap.Channel, radio.Position{}, ap.onAir)
	return ap
}

// VirtualLayer exposes the AP-side translation table (for tests and
// the attack harness's ground truth).
func (ap *AP) VirtualLayer() *vmac.AP { return ap.vm }

func (ap *AP) onAir(tx radio.Transmission, _ float64) {
	f, err := mac.Unmarshal(tx.Payload)
	if err != nil {
		return // not for us / corrupted
	}
	if !f.IsUplink() {
		return // our own downlink
	}
	switch {
	case f.Type == mac.TypeManagement && f.Subtype == mac.SubtypeAssocRequest:
		ap.handleAssoc(f)
	case f.Type == mac.TypeManagement && f.Subtype == mac.SubtypeAction:
		ap.handleConfigRequest(f)
	case f.Type == mac.TypeData:
		ap.handleUplinkData(f)
	}
}

func (ap *AP) handleAssoc(f *mac.Frame) {
	sta := ap.associatedPendingLookup(f.Addr2)
	if sta == nil {
		return
	}
	key := secure.DeriveKey([]byte(masterSecret), "sta="+f.Addr2.String())
	rx, err := secure.NewSealer(key, 1)
	if err != nil {
		return
	}
	tx, err := secure.NewSealer(key, 2)
	if err != nil {
		return
	}
	ap.rxSealers[f.Addr2] = rx
	ap.txSealers[f.Addr2] = tx
	ap.associated[f.Addr2] = sta
	resp := &mac.Frame{
		Type: mac.TypeManagement, Subtype: mac.SubtypeAssocResponse,
		Flags: mac.FlagFromDS,
		Addr1: f.Addr2, Addr2: ap.Addr, Addr3: ap.Addr,
		Seq: ap.seq.Next(),
	}
	ap.transmit(resp)
}

// associatedPendingLookup finds the station object by address; the
// simulation registers stations with the network when created.
func (ap *AP) associatedPendingLookup(addr mac.Address) *Station {
	for _, sta := range ap.net.stations {
		if sta.Phys == addr {
			return sta
		}
	}
	return nil
}

func (ap *AP) handleConfigRequest(f *mac.Frame) {
	rx := ap.rxSealers[f.Addr2]
	txSealer := ap.txSealers[f.Addr2]
	if rx == nil || txSealer == nil {
		return // not associated
	}
	plain, err := rx.Open(f.Payload, nil)
	if err != nil {
		return
	}
	req, err := vmac.UnmarshalRequest(plain)
	if err != nil {
		return
	}
	resp, err := ap.vm.HandleRequest(req)
	if err != nil {
		return
	}
	// The station's requested scheduler config was registered at
	// RequestVirtualInterfaces time.
	out := &mac.Frame{
		Type: mac.TypeManagement, Subtype: mac.SubtypeAction,
		Flags: mac.FlagFromDS | mac.FlagProtected,
		Addr1: f.Addr2, Addr2: ap.Addr, Addr3: ap.Addr,
		Seq:     ap.seq.Next(),
		Payload: txSealer.Seal(vmac.MarshalResponse(resp), nil),
	}
	ap.transmit(out)
}

func (ap *AP) handleUplinkData(f *mac.Frame) {
	src := f.Addr2
	// Figure 3 uplink path: translate a virtual source back to the
	// client's physical address before anything above the MAC sees it.
	if phys, ok := ap.vm.TranslateUplink(src); ok {
		src = phys
	}
	_ = src // delivered upstream; the distribution system is out of scope
}

// SendDownlink queues payloadLen bytes toward the client with the
// given physical address, applying the Figure 3 downlink path: if the
// client uses virtual interfaces, the reshaping algorithm picks one
// and the destination is rewritten to that virtual address.
func (ap *AP) SendDownlink(phys mac.Address, payloadLen int) error {
	sta := ap.associated[phys]
	if sta == nil {
		return fmt.Errorf("wlan: %v not associated", phys)
	}
	dst := phys
	if ap.vm.UsesVirtual(phys) {
		sched := ap.downlinkSched[phys]
		if sched == nil {
			return errors.New("wlan: virtual client has no downlink scheduler")
		}
		idx := sched.Assign(trace.Packet{
			Time: ap.net.Kernel.Now(),
			Size: int32(payloadLen),
			Dir:  trace.Downlink,
		})
		v, ok := ap.vm.VirtualOf(phys, idx)
		if !ok {
			return fmt.Errorf("wlan: no virtual address at index %d", idx)
		}
		dst = v
	}
	f := mac.NewData(ap.Addr, dst, ap.Addr, payloadLen, false)
	f.Seq = ap.seq.Next()
	ap.transmit(f)
	return nil
}

func (ap *AP) transmit(f *mac.Frame) {
	buf, err := f.Marshal()
	if err != nil {
		return
	}
	ap.net.Medium.Transmit(ap.net.Kernel.Now(), radio.Transmission{
		Channel: ap.Channel,
		Size:    f.AirLength(),
		Payload: buf,
	}, radio.DefaultRate)
}

// Station is a wireless client.
type Station struct {
	net  *Network
	Phys mac.Address
	Pos  radio.Position
	vm   *vmac.Client
	seq  mac.SequenceCounter
	// ifaceSeq holds one independent sequence counter per virtual
	// interface when PerInterfaceSeq is set.
	ifaceSeq []mac.SequenceCounter
	// PerInterfaceSeq gives each virtual interface its own 802.11
	// sequence counter, started at a random offset. A single shared
	// counter interleaves across the virtual addresses and lets a
	// sniffer stitch the sub-flows back together (see
	// attack.LinkBySequence); independent counters restore the
	// collision statistics of unrelated stations.
	PerInterfaceSeq bool
	// uplinkSched reshapes uplink traffic (client side of §III-C2).
	uplinkSched reshape.Scheduler
	rxSealer    *secure.Sealer
	txSealer    *secure.Sealer
	associated  bool
	configured  bool
	// Received counts data frames accepted by the MAC receive filter.
	Received int
	// TPCSwingDB, when positive, applies per-packet transmit power
	// control (§V-A).
	TPCSwingDB float64
	tpcRNG     *stats.RNG
}

// NewStation creates a station and registers it with the network.
func (n *Network) NewStation(pos radio.Position) *Station {
	sta := &Station{
		net:    n,
		Phys:   mac.RandomAddress(n.rng),
		Pos:    pos,
		tpcRNG: n.rng.Split(),
	}
	sta.vm = vmac.NewClient(sta.Phys)
	n.Medium.Subscribe(n.AP.Channel, pos, sta.onAir)
	n.stations = append(n.stations, sta)
	return sta
}

func (sta *Station) onAir(tx radio.Transmission, _ float64) {
	f, err := mac.Unmarshal(tx.Payload)
	if err != nil || !f.IsDownlink() {
		return
	}
	// Modified MAC receive filter (Figure 3): accept the physical
	// address or any owned virtual address.
	if f.Addr1 != sta.Phys && !sta.vm.Owns(f.Addr1) {
		return
	}
	switch {
	case f.Type == mac.TypeManagement && f.Subtype == mac.SubtypeAssocResponse:
		sta.associated = true
	case f.Type == mac.TypeManagement && f.Subtype == mac.SubtypeAction:
		sta.handleConfigResponse(f)
	case f.Type == mac.TypeData:
		// Translate the virtual destination back to the physical
		// address before upper layers see it.
		if f.Addr1 != sta.Phys {
			if _, ok := sta.vm.TranslateDownlink(f.Addr1); !ok {
				return
			}
		}
		sta.Received++
		sta.net.AP.Delivered[sta.Phys]++
	}
}

func (sta *Station) handleConfigResponse(f *mac.Frame) {
	if sta.rxSealer == nil {
		return
	}
	plain, err := sta.rxSealer.Open(f.Payload, nil)
	if err != nil {
		return
	}
	resp, err := vmac.UnmarshalResponse(plain)
	if err != nil {
		return
	}
	if err := sta.vm.Install(resp); err != nil {
		return
	}
	sta.configured = true
}

// Associate performs the (abbreviated) association handshake and
// derives the config-protocol keys on both ends.
func (sta *Station) Associate() {
	key := secure.DeriveKey([]byte(masterSecret), "sta="+sta.Phys.String())
	// Direction prefixes mirror the AP's (station TX = 1, RX = 2).
	txS, err := secure.NewSealer(key, 1)
	if err != nil {
		return
	}
	rxS, err := secure.NewSealer(key, 2)
	if err != nil {
		return
	}
	sta.txSealer = txS
	sta.rxSealer = rxS
	f := &mac.Frame{
		Type: mac.TypeManagement, Subtype: mac.SubtypeAssocRequest,
		Flags: mac.FlagToDS,
		Addr1: sta.net.AP.Addr, Addr2: sta.Phys, Addr3: sta.net.AP.Addr,
		Seq: sta.seq.Next(),
	}
	sta.transmit(f)
}

// Associated reports association state.
func (sta *Station) Associated() bool { return sta.associated }

// Configured reports whether virtual interfaces are installed.
func (sta *Station) Configured() bool { return sta.configured }

// Interfaces returns the installed virtual interface count.
func (sta *Station) Interfaces() int { return sta.vm.Interfaces() }

// VirtualAt exposes the installed addresses for tests.
func (sta *Station) VirtualAt(i int) (mac.Address, bool) { return sta.vm.VirtualAt(i) }

// configRetryTimeout is how long the station waits for a
// configuration response before re-sending the request with a fresh
// nonce. The AP's HandleRequest is idempotent, so retries never leak
// pool addresses.
const configRetryTimeout = 50 * time.Millisecond

// MaxConfigRetries bounds configuration re-sends over a lossy channel.
// Both the request and the response must survive, so at 50% frame
// loss each attempt succeeds with probability 1/4; twenty retries
// push the residual failure probability below 0.3%.
const MaxConfigRetries = 20

// RequestVirtualInterfaces runs step 1 of Figure 2: an encrypted
// action frame asking for count interfaces, retried on timeout. The
// matching schedulers are installed on both sides once the response
// arrives (the AP side is registered immediately; it only takes
// effect after the grant).
func (sta *Station) RequestVirtualInterfaces(count int, mkSched func(i int) reshape.Scheduler) error {
	if !sta.associated {
		return errors.New("wlan: not associated")
	}
	if sta.txSealer == nil {
		return errors.New("wlan: association keys missing")
	}
	// Register the AP-side downlink scheduler now; the AP constructs
	// its own instance so client and AP state stay independent.
	sta.net.AP.downlinkSched[sta.Phys] = mkSched(count)
	sta.uplinkSched = mkSched(count)
	sta.sendConfigRequest(count, 0)
	return nil
}

func (sta *Station) sendConfigRequest(count, attempt int) {
	nonce := sta.net.rng.Uint64()
	req := sta.vm.NewRequest(count, nonce)
	f := &mac.Frame{
		Type: mac.TypeManagement, Subtype: mac.SubtypeAction,
		Flags: mac.FlagToDS | mac.FlagProtected,
		Addr1: sta.net.AP.Addr, Addr2: sta.Phys, Addr3: sta.net.AP.Addr,
		Seq:     sta.seq.Next(),
		Payload: sta.txSealer.Seal(vmac.MarshalRequest(req), nil),
	}
	sta.transmit(f)
	if attempt < MaxConfigRetries {
		sta.net.Kernel.After(configRetryTimeout, func() {
			if !sta.configured {
				sta.sendConfigRequest(count, attempt+1)
			}
		})
	}
}

// SendUplink queues payloadLen bytes toward the AP, applying the
// client-side reshaping of Figure 3 when configured.
func (sta *Station) SendUplink(payloadLen int) error {
	if !sta.associated {
		return errors.New("wlan: not associated")
	}
	src := sta.Phys
	iface := -1
	if sta.configured && sta.uplinkSched != nil {
		iface = sta.uplinkSched.Assign(trace.Packet{
			Time: sta.net.Kernel.Now(),
			Size: int32(payloadLen),
			Dir:  trace.Uplink,
		}) % sta.vm.Interfaces()
		if v, ok := sta.vm.VirtualAt(iface); ok {
			src = v
		}
	}
	f := mac.NewData(src, sta.net.AP.Addr, sta.net.AP.Addr, payloadLen, true)
	f.Seq = sta.nextSeq(iface)
	sta.transmit(f)
	return nil
}

// nextSeq issues the frame sequence number: the shared counter, or
// the interface's own counter under PerInterfaceSeq.
func (sta *Station) nextSeq(iface int) uint16 {
	if !sta.PerInterfaceSeq || iface < 0 {
		return sta.seq.Next()
	}
	for len(sta.ifaceSeq) <= iface {
		var c mac.SequenceCounter
		// Random initial offset, so counters of co-located
		// interfaces never align.
		c.Seed(uint16(sta.net.rng.Intn(4096)))
		sta.ifaceSeq = append(sta.ifaceSeq, c)
	}
	return sta.ifaceSeq[iface].Next()
}

func (sta *Station) transmit(f *mac.Frame) {
	buf, err := f.Marshal()
	if err != nil {
		return
	}
	var tpc float64
	if sta.TPCSwingDB > 0 {
		tpc = (sta.tpcRNG.Float64() - 0.5) * sta.TPCSwingDB
	}
	sta.net.Medium.Transmit(sta.net.Kernel.Now(), radio.Transmission{
		Channel:         sta.net.AP.Channel,
		Size:            f.AirLength(),
		TxPos:           sta.Pos,
		TxPowerOffsetDB: tpc,
		Payload:         buf,
	}, radio.DefaultRate)
}

// ReplayTrace schedules a labeled application trace through the
// network: downlink packets leave the AP, uplink packets leave the
// station, at their recorded times. Returns the number of packets
// scheduled. Run the kernel afterwards to execute.
func (n *Network) ReplayTrace(sta *Station, tr *trace.Trace) int {
	count := 0
	for _, p := range tr.Packets {
		p := p
		payload := int(p.Size) - 28 // header accounted by AirLength
		if payload < 0 {
			payload = 0
		}
		if p.Dir == trace.Uplink {
			n.Kernel.After(p.Time-n.Kernel.Now(), func() { _ = sta.SendUplink(payload) })
		} else {
			n.Kernel.After(p.Time-n.Kernel.Now(), func() { _ = n.AP.SendDownlink(sta.Phys, payload) })
		}
		count++
	}
	return count
}
