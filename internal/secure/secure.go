// Package secure provides the encryption used by the virtual-interface
// configuration exchange. §III-B1 of the paper requires the
// request/response packets to be encrypted so an eavesdropper cannot
// learn the mapping between a client's physical MAC address and its
// assigned virtual addresses.
//
// We use AES-256-GCM from the standard library with a per-association
// key (in a real deployment this is the pairwise transient key the
// 4-way handshake already establishes; the simulation derives it from
// the association context).
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the AES-256 key length in bytes.
const KeySize = 32

// Key is a symmetric session key.
type Key [KeySize]byte

// DeriveKey deterministically derives a session key from a master
// secret and context label (e.g. the client and AP MAC addresses),
// via HMAC-SHA256 as a KDF. Both simulation endpoints derive the same
// key from the shared association context.
func DeriveKey(master []byte, context string) Key {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("trafficreshape-vmac-config-v1|"))
	mac.Write([]byte(context))
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// Sealer encrypts and authenticates configuration payloads with
// monotonically increasing nonces, and on the receiving side opens
// each box at most once: Open rejects a box sealed for the other
// direction or whose counter is not above the last one it opened, so
// an eavesdropper cannot replay a captured box. Not safe for
// concurrent use; each protocol endpoint owns one Sealer per
// direction.
type Sealer struct {
	aead    cipher.AEAD
	counter uint64
	// prefix distinguishes the two directions of one association so
	// both sides can seal with the same key without nonce collision.
	prefix uint32
	// last is the counter of the last box Open accepted, valid once
	// opened is set.
	last   uint64
	opened bool
}

// NewSealer builds a Sealer for one direction of an association.
func NewSealer(k Key, directionPrefix uint32) (*Sealer, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secure: %w", err)
	}
	return &Sealer{aead: aead, prefix: directionPrefix}, nil
}

// ErrAuthFailed reports a ciphertext that failed authentication.
var ErrAuthFailed = errors.New("secure: message authentication failed")

// ErrReplay reports a box sealed for the other direction, or one whose
// nonce counter is not above the last counter this Sealer opened.
var ErrReplay = errors.New("secure: replayed or misdirected message")

// Seal encrypts plaintext with the next nonce, binding ad as
// associated data. The nonce is prepended to the ciphertext.
func (s *Sealer) Seal(plaintext, ad []byte) []byte {
	nonce := make([]byte, s.aead.NonceSize())
	binary.BigEndian.PutUint32(nonce[0:4], s.prefix)
	binary.BigEndian.PutUint64(nonce[4:12], s.counter)
	s.counter++
	out := make([]byte, 0, len(nonce)+len(plaintext)+s.aead.Overhead())
	out = append(out, nonce...)
	return s.aead.Seal(out, nonce, plaintext, ad)
}

// Open decrypts a message produced by Seal with the same key,
// direction prefix and associated data. The counter only moves once
// the box authenticates, so a forged box cannot block later ones.
func (s *Sealer) Open(sealed, ad []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(sealed) < ns+s.aead.Overhead() {
		return nil, ErrAuthFailed
	}
	counter := binary.BigEndian.Uint64(sealed[4:12])
	if binary.BigEndian.Uint32(sealed[0:4]) != s.prefix || (s.opened && counter <= s.last) {
		return nil, ErrReplay
	}
	plaintext, err := s.aead.Open(nil, sealed[:ns], sealed[ns:], ad)
	if err != nil {
		return nil, ErrAuthFailed
	}
	s.last, s.opened = counter, true
	return plaintext, nil
}

// Overhead returns the byte expansion of Seal: nonce plus GCM tag.
// This is the entire per-message cost of the configuration protocol's
// secrecy — the paper's point that reshaping's only overhead is
// configuration traffic.
func (s *Sealer) Overhead() int {
	return s.aead.NonceSize() + s.aead.Overhead()
}
