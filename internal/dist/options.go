package dist

// Option sub-structs shared by both ends of a fleet connection:
// NetOptions is the transport surface CoordinatorOptions and
// WorkerOptions both carry, CacheOptions bounds a worker's result
// cache.

import (
	"crypto/tls"
	"io"
	"net"
	"sync"
	"time"
)

// NetOptions is the transport security surface shared by both ends of
// a fleet connection: the coordinator serves its port with it, the
// worker dials with it.
type NetOptions struct {
	// TLS, when set, encrypts the connection with this config. On the
	// coordinator it is the server config (LoadServerTLS /
	// SelfSignedTLS build one); on the worker the client config
	// (ClientTLS). Plaintext peers on a TLS endpoint fail the
	// handshake and are rejected before any frame is interpreted.
	TLS *tls.Config
	// AuthKey, when non-empty, is the fleet's shared secret: the
	// coordinator challenges every connection with a nonce and admits
	// only hellos carrying HMAC-SHA256(AuthKey, nonce); the worker
	// answers the challenge with it.
	AuthKey string
	// HandshakeTimeout bounds the challenge → hello → trace-have
	// exchange (and the TLS handshake under it); <= 0 selects 30 s.
	// Without it, a plaintext peer and a TLS peer would deadlock
	// waiting for each other's opening bytes.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds every post-handshake frame write. A
	// blackholed peer — half-open TCP, a partition, a receiver that
	// stopped draining — otherwise blocks the writer forever once the
	// kernel buffers fill, wedging coordinator dispatch (or a worker's
	// result writer) on a single dead connection. When the deadline
	// fires the session is failed and its cells requeued, exactly like
	// any other transport death. <= 0 selects 2 minutes.
	WriteTimeout time.Duration
	// Wrap, when set, wraps every raw connection — dialed on the
	// worker, accepted on the coordinator — before TLS is layered on
	// top. netchaos.Chaos.Wrap plugs in here to inject deterministic
	// transport faults under the real protocol stack.
	Wrap func(net.Conn) net.Conn
}

// handshakeTimeout resolves the default.
func (n NetOptions) handshakeTimeout() time.Duration {
	if n.HandshakeTimeout <= 0 {
		return 30 * time.Second
	}
	return n.HandshakeTimeout
}

// writeTimeout resolves the default post-handshake write deadline.
func (n NetOptions) writeTimeout() time.Duration {
	if n.WriteTimeout <= 0 {
		return 2 * time.Minute
	}
	return n.WriteTimeout
}

// frameWriter serializes frame writes on one connection and bounds
// each by a write deadline, so a blackholed peer — half-open TCP, a
// partition, a receiver that stopped draining — stalls a writer for
// at most one timeout, never wedges it. Both ends write through one:
// the coordinator's dispatch, ping and shutdown frames share a
// session's, the worker's result batches and pongs share its own.
type frameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
}

// write encodes one frame onto the connection under the deadline.
func (w *frameWriter) write(encode func(io.Writer) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	defer func() { _ = w.conn.SetWriteDeadline(time.Time{}) }()
	return encode(w.conn)
}

// wrapListener applies NetOptions.Wrap to every accepted connection,
// under the TLS listener when both are configured (faults and custom
// transports sit below the record layer, like the real network).
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// CacheOptions bounds the result cache of a worker's private
// evaluator. Its dataset cache and trace store keep fixed bounds (16
// datasets, 64 traces); eviction is always safe because every entry
// is a pure function of its key.
type CacheOptions struct {
	// Results bounds the evaluated-cell result cache (entries); <= 0
	// selects 4096.
	Results int
}
