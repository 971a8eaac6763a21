package dist

// Defaults of the shared options surface.

import (
	"testing"
	"time"
)

func TestNetOptionsHandshakeTimeoutDefault(t *testing.T) {
	if d := (NetOptions{}).handshakeTimeout(); d != 30*time.Second {
		t.Errorf("zero-value handshake timeout = %v, want 30s", d)
	}
	if d := (NetOptions{HandshakeTimeout: time.Second}).handshakeTimeout(); d != time.Second {
		t.Errorf("explicit handshake timeout = %v, want 1s", d)
	}
}
