package dist

// Worker-side fault injection for the fault tests, through the same
// NetOptions.Wrap seam netchaos uses. The wrapped connection frames
// what the coordinator sends and, from the nth cell-batch frame on,
// either fails the read — the worker dies holding that cell — or drops
// frames — the worker wedges, connected and answering pings but
// silent on cells, and perhaps recovers. Run the worker at Slots: 1 so
// every batch holds one cell and n counts cells. The framing reads the
// plaintext stream, so these wraps are for connections without TLS.

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
)

// ErrInjectedDeath is the read error of a worker killed by DieAtBatch.
var ErrInjectedDeath = errors.New("dist: injected worker death")

// DieAtBatch returns a worker NetOptions.Wrap whose connection fails
// the read of the nth cell-batch frame and closes: the worker answers
// the batches before it and strands the nth, which the coordinator
// must reassign.
func DieAtBatch(n int) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return &faultConn{Conn: c, at: n} }
}

// WedgeAtBatch returns a worker NetOptions.Wrap whose connection drops
// drop cell-batch frames from the nth on (drop <= 0 drops every one)
// and passes every other frame: only the coordinator's cell timeout
// can reclaim the dropped cells, and once the drops are spent the
// worker serves again.
func WedgeAtBatch(n, drop int) func(net.Conn) net.Conn {
	if drop <= 0 {
		drop = math.MaxInt
	}
	return func(c net.Conn) net.Conn { return &faultConn{Conn: c, at: n, drop: drop} }
}

// faultConn is only read by the worker's read loop, so it needs no
// lock.
type faultConn struct {
	net.Conn
	at      int // 1-based cell-batch frame the fault starts at
	drop    int // frames to drop from at on; 0 dies instead
	batches int // cell-batch frames received
	raw     []byte
	out     []byte // whole frames the reader has not consumed yet
	buf     [32 << 10]byte
}

func (c *faultConn) Read(p []byte) (int, error) {
	for len(c.out) == 0 {
		if len(c.raw) >= 5 {
			if n := 5 + int(binary.LittleEndian.Uint32(c.raw[1:5])); len(c.raw) >= n {
				frame := c.raw[:n:n]
				c.raw = c.raw[n:]
				if frame[0] == kindCellBatch {
					c.batches++
					if c.batches >= c.at {
						if c.drop == 0 {
							c.Conn.Close()
							return 0, ErrInjectedDeath
						}
						if c.batches-c.at < c.drop {
							continue
						}
					}
				}
				c.out = append(c.out, frame...)
				continue
			}
		}
		n, err := c.Conn.Read(c.buf[:])
		c.raw = append(c.raw, c.buf[:n]...)
		if err != nil {
			return 0, err
		}
	}
	n := copy(p, c.out)
	c.out = c.out[n:]
	return n, nil
}
