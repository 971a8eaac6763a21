package dist

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestSessionWriteDeadline pins the wedge-proofing contract of the
// frame writer both ends of a session write through: a peer that
// accepts the connection but never reads (a blackholed worker once
// the kernel buffers fill) can stall a frame write for at most the
// configured timeout — never forever. net.Pipe is the perfect
// stand-in: unbuffered, so an unread write blocks immediately, and
// deadline-aware.
func TestSessionWriteDeadline(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()

	fw := &frameWriter{conn: local, timeout: 50 * time.Millisecond}
	start := time.Now()
	err := fw.write(func(w io.Writer) error {
		_, err := w.Write(make([]byte, 1<<16))
		return err
	})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write to a never-reading peer returned %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline write took %v — the timeout did not bound the stall", elapsed)
	}

	// A reading peer sees the write complete, and the deadline is
	// cleared afterwards so it cannot leak into later blocking reads.
	fw.timeout = time.Second
	go func() { _, _ = io.ReadFull(remote, make([]byte, 4)) }()
	if err := fw.write(func(w io.Writer) error {
		_, err := w.Write([]byte("pong"))
		return err
	}); err != nil {
		t.Fatalf("write to a reading peer failed: %v", err)
	}
}
