package trace

// Ring is a fixed-capacity packet ring buffer: the per-flow window
// store of the streaming engine. Pushing beyond capacity overwrites
// the oldest packet, so a flow's memory footprint is bounded no matter
// how fast it transmits, and the buffer never allocates after
// construction. Packets are stored by value; AppendTo reads them back
// in arrival order.
//
// The implementation is deliberately division-free (a wrapping head
// index instead of modulo arithmetic): Push sits on the streaming
// engine's per-packet hot path, where an integer divide is a
// measurable fraction of the whole budget.
type Ring struct {
	buf  []Packet
	head int // index of the oldest packet once full; 0 before that
}

// NewRing returns a ring holding at most capacity packets.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{buf: make([]Packet, 0, capacity)}
}

// Push appends p, overwriting the oldest packet when full. It reports
// whether a packet was evicted.
func (r *Ring) Push(p Packet) bool {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, p)
		return false
	}
	r.buf[r.head] = p
	r.head++
	if r.head == cap(r.buf) {
		r.head = 0
	}
	return true
}

// Len returns the number of packets currently held.
func (r *Ring) Len() int { return len(r.buf) }

// AppendTo appends the held packets, oldest first, to dst and returns
// the extended slice. With a dst of sufficient capacity this performs
// no allocation, which is how the streaming engine rebuilds window
// views without touching the heap.
func (r *Ring) AppendTo(dst []Packet) []Packet {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// Reset empties the ring without releasing its storage, ready for the
// next window.
func (r *Ring) Reset() { r.buf = r.buf[:0]; r.head = 0 }
