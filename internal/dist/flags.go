package dist

// Shared CLI flag registration for fleet binaries: every binary
// registers the same -dist-* names through these helpers, so fleet
// run-books use one vocabulary on every host.

import (
	"flag"
	"os"
	"strings"
	"time"
)

// FleetFlags holds the flag-backed values of the canonical fleet
// surface. Register the groups a binary needs (shared key flags for
// everyone, dial-side for workers, serve-side for coordinators) and
// read the fields after flag parsing.
type FleetFlags struct {
	// Shared (RegisterShared).
	Key     string // -dist-key
	KeyFile string // -dist-key-file

	// Dial side (RegisterDial) — binaries that join a fleet.
	TLS         bool   // -dist-tls
	TLSCA       string // -dist-tls-ca
	TLSInsecure bool   // -dist-tls-insecure

	// Serve side (RegisterServe) — binaries that own a fleet.
	TLSCert     string        // -dist-tls-cert
	TLSKey      string        // -dist-tls-key
	TLSAuto     bool          // -dist-tls-auto
	CellTimeout time.Duration // -dist-cell-timeout
	MaxBatch    int           // -dist-max-batch
	Heartbeat   time.Duration // -dist-heartbeat
}

// RegisterShared registers the flags every fleet binary carries: the
// shared authentication key and its file form.
func (ff *FleetFlags) RegisterShared(fs *flag.FlagSet) {
	fs.StringVar(&ff.Key, "dist-key", "", "shared fleet key for the HMAC handshake challenge")
	fs.StringVar(&ff.KeyFile, "dist-key-file", "", "read the shared fleet key from this file")
}

// RegisterDial registers the worker-side flags: how to dial and
// verify the coordinator.
func (ff *FleetFlags) RegisterDial(fs *flag.FlagSet) {
	fs.BoolVar(&ff.TLS, "dist-tls", false, "dial over TLS, verifying with the system roots")
	fs.StringVar(&ff.TLSCA, "dist-tls-ca", "", "dial over TLS, verifying against this PEM certificate")
	fs.BoolVar(&ff.TLSInsecure, "dist-tls-insecure", false, "dial over TLS without verifying the coordinator certificate (pair with -dist-key so the HMAC challenge authenticates the fleet)")
}

// RegisterServe registers the coordinator-side flags: the listener's
// TLS material and the scheduler knobs.
func (ff *FleetFlags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&ff.TLSCert, "dist-tls-cert", "", "serve the coordinator port over TLS with this PEM certificate")
	fs.StringVar(&ff.TLSKey, "dist-tls-key", "", "PEM key for -dist-tls-cert")
	fs.BoolVar(&ff.TLSAuto, "dist-tls-auto", false, "serve the coordinator port over TLS with an ephemeral self-signed certificate (spawned local workers skip verification and rely on -dist-key for identity)")
	fs.DurationVar(&ff.CellTimeout, "dist-cell-timeout", 0, "reclaim a grid cell from a wedged-but-alive worker after this long (0 = only detect TCP death; the deadline doubles per retry)")
	fs.IntVar(&ff.MaxBatch, "dist-max-batch", 0, "cap the cells packed into one dispatch frame (0 = size batches to each worker's slots; smaller strands fewer cells when a worker dies mid-frame)")
	fs.DurationVar(&ff.Heartbeat, "dist-heartbeat", 10*time.Second, "ping workers at this interval and reap any silent for three intervals — the half-open/partition detector (0 = disabled)")
}

// ResolveKey resolves the shared fleet key: the explicit flag wins,
// then the key file (whitespace-trimmed), then — when envVar is
// non-empty — the environment, which is how parent processes hand the
// key to spawned workers without exposing it on a command line.
func (ff *FleetFlags) ResolveKey(envVar string) (string, error) {
	if ff.Key != "" {
		return ff.Key, nil
	}
	if ff.KeyFile != "" {
		raw, err := os.ReadFile(ff.KeyFile)
		if err != nil {
			return "", err
		}
		return strings.TrimSpace(string(raw)), nil
	}
	if envVar != "" {
		return os.Getenv(envVar), nil
	}
	return "", nil
}

// DialNet builds the worker-side NetOptions from the dial and shared
// flags: a TLS client config when any TLS flag asked for one, plus
// the resolved auth key.
func (ff *FleetFlags) DialNet(envVar string) (NetOptions, error) {
	var net NetOptions
	key, err := ff.ResolveKey(envVar)
	if err != nil {
		return net, err
	}
	net.AuthKey = key
	if ff.TLS || ff.TLSCA != "" || ff.TLSInsecure {
		cfg, err := ClientTLS(ff.TLSCA, ff.TLSInsecure)
		if err != nil {
			return net, err
		}
		net.TLS = cfg
	}
	return net, nil
}
