package trace

// Ring is a fixed-capacity packet ring buffer: the per-flow window
// store of the streaming engine. Pushing beyond capacity overwrites
// the oldest packet, so a flow's memory footprint is bounded no matter
// how fast it transmits, and the buffer never allocates after
// construction. Packets are stored by value; AppendTo copies them out
// in arrival order, and Segments reads them in place as two runs. The
// i-th packet pushed since the last Reset sits in physical slot
// i mod capacity, so a caller can keep per-packet data in a parallel
// array indexed by slot and split it where Segments splits the
// packets.
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

// Segments returns the held packets in arrival order as two runs that
// alias the ring's storage: older, from the oldest packet's slot to the
// end of the storage, then newer, from slot 0 up to that slot. newer is
// empty until the ring wraps. A parallel array a indexed by physical
// slot lines up as a[len(newer):len(newer)+len(older)] and
// a[:len(newer)]. Both runs are valid until the next Push or Reset.
func (r *Ring) Segments() (older, newer []Packet) {
	return r.buf[r.head:], r.buf[:r.head]
}

// Reset empties the ring without releasing its storage, ready for the
// next window.
func (r *Ring) Reset() { r.buf = r.buf[:0]; r.head = 0 }
