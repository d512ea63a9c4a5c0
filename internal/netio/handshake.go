package netio

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"net"
)

// The session handshake authenticates both peers and binds the
// authentication to this connection before any stream traffic flows,
// in the shape of the Sia RHP transport (SNIPPETS.md snippet 3 feeds
// that transport's encoder): an X25519 ephemeral key agreement
// followed by a challenge/response proof in each direction.
//
//	dialer → 'X' ver dialerEphPub[32] dialerAddrLen dialerAddr dialerChallenge[32]
//	server → ver serverEphPub[32] serverAddrLen serverAddr serverChallenge[32] serverProof[32]
//	dialer → dialerProof[32]
//
// Both sides derive an authentication key from the ECDH shared secret
// and the configured pre-shared key:
//
//	authKey = HMAC-SHA256(ecdh(eph, eph'), "dpn-mux-auth" || PSK)
//
// and each proof is HMAC-SHA256(authKey, role || dialerEphPub ||
// serverEphPub || peerChallenge). A peer that does not hold the PSK
// cannot produce a valid proof even if it completes the key agreement
// (a man in the middle can run two ECDH exchanges, but both transcripts
// it would need to re-sign require the PSK), so a verified handshake
// means the peer holds the cluster secret *and* shares this session's
// ephemeral keys. The broker listen addresses exchanged alongside the
// keys let each side pool the session under the peer's dialable
// identity, which is what makes session reuse symmetric.
//
// The zero-value PSK is valid and yields an unauthenticated-but-bound
// session (any peer speaking the protocol may connect, like a TLS
// connection without client certificates); production clusters set a
// PSK on every broker or on none.

// Magic is the first byte of a session handshake; the acceptor closes
// a connection that opens with anything else.
const Magic = 'X'

// version is the session protocol version byte. Version 2 dropped the
// per-stream receive window: a link's credit window is the only one.
const version = 2

// maxHandshakeAddr bounds the announced broker address defensively.
const maxHandshakeAddr = 512

// ErrAuthFailed is returned when the peer's challenge/response proof
// does not verify: it does not hold the session PSK, or the exchange
// was tampered with. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrAuthFailed = errors.New("netio: peer authentication failed")

// authKey derives the proof key from the ECDH shared secret and PSK.
func authKey(shared, psk []byte) []byte {
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("dpn-mux-auth"))
	mac.Write(psk)
	return mac.Sum(nil)
}

// proof computes one side's challenge response.
func proof(key []byte, role string, dialerPub, serverPub, challenge []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(role))
	mac.Write(dialerPub)
	mac.Write(serverPub)
	mac.Write(challenge)
	return mac.Sum(nil)
}

func writeAddr(buf []byte, addr string) ([]byte, error) {
	if len(addr) > maxHandshakeAddr {
		return nil, fmt.Errorf("netio: announced address too long (%d bytes)", len(addr))
	}
	return appendString(buf, addr), nil
}

func readAddr(r io.Reader) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", err
	}
	n := int(lb[0])<<8 | int(lb[1])
	if n > maxHandshakeAddr {
		return "", fmt.Errorf("netio: announced address too long (%d bytes)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// dialHandshake runs the dialer half of the session handshake on conn.
// localAddr is this broker's listen address, announced so the peer can
// pool the session symmetrically. It returns the peer's announced
// address, its dialable identity for session pooling.
func dialHandshake(conn net.Conn, psk []byte, localAddr string) (peerAddr string, err error) {
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return "", err
	}
	var challenge [32]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		return "", err
	}
	msg := []byte{Magic, version}
	msg = append(msg, key.PublicKey().Bytes()...)
	if msg, err = writeAddr(msg, localAddr); err != nil {
		return "", err
	}
	msg = append(msg, challenge[:]...)
	if _, err := conn.Write(msg); err != nil {
		return "", err
	}

	var fixed [1 + 32]byte // version + server ephemeral pub
	if _, err := io.ReadFull(conn, fixed[:]); err != nil {
		return "", err
	}
	if fixed[0] != version {
		return "", fmt.Errorf("netio: peer speaks protocol version %d, want %d", fixed[0], version)
	}
	serverPub, err := ecdh.X25519().NewPublicKey(fixed[1:33])
	if err != nil {
		return "", fmt.Errorf("netio: bad server key: %w", err)
	}
	if peerAddr, err = readAddr(conn); err != nil {
		return "", err
	}
	var tail [32 + 32]byte // server challenge + server proof
	if _, err := io.ReadFull(conn, tail[:]); err != nil {
		return "", err
	}
	shared, err := key.ECDH(serverPub)
	if err != nil {
		return "", fmt.Errorf("netio: key agreement: %w", err)
	}
	ak := authKey(shared, psk)
	dPub, sPub := key.PublicKey().Bytes(), serverPub.Bytes()
	want := proof(ak, "srv", dPub, sPub, challenge[:])
	if subtle.ConstantTimeCompare(want, tail[32:64]) != 1 {
		return "", ErrAuthFailed
	}
	if _, err := conn.Write(proof(ak, "cli", dPub, sPub, tail[:32])); err != nil {
		return "", err
	}
	return peerAddr, nil
}

// acceptHandshake runs the serving half of the session handshake.
func acceptHandshake(conn net.Conn, psk []byte, localAddr string) (peerAddr string, err error) {
	var fixed [2 + 32]byte // magic + version + dialer ephemeral pub
	// The first byte is judged alone: a peer speaking some other protocol
	// may never send a second one.
	if _, err := io.ReadFull(conn, fixed[:1]); err != nil {
		return "", err
	}
	if fixed[0] != Magic {
		return "", fmt.Errorf("netio: first byte %q is not a session handshake", fixed[0])
	}
	if _, err := io.ReadFull(conn, fixed[1:]); err != nil {
		return "", err
	}
	if fixed[1] != version {
		return "", fmt.Errorf("netio: peer speaks protocol version %d, want %d", fixed[1], version)
	}
	dialerPub, err := ecdh.X25519().NewPublicKey(fixed[2:34])
	if err != nil {
		return "", fmt.Errorf("netio: bad dialer key: %w", err)
	}
	if peerAddr, err = readAddr(conn); err != nil {
		return "", err
	}
	var dialerChallenge [32]byte
	if _, err := io.ReadFull(conn, dialerChallenge[:]); err != nil {
		return "", err
	}

	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return "", err
	}
	var challenge [32]byte
	if _, err := rand.Read(challenge[:]); err != nil {
		return "", err
	}
	shared, err := key.ECDH(dialerPub)
	if err != nil {
		return "", fmt.Errorf("netio: key agreement: %w", err)
	}
	ak := authKey(shared, psk)
	dPub, sPub := dialerPub.Bytes(), key.PublicKey().Bytes()

	msg := []byte{version}
	msg = append(msg, sPub...)
	if msg, err = writeAddr(msg, localAddr); err != nil {
		return "", err
	}
	msg = append(msg, challenge[:]...)
	msg = append(msg, proof(ak, "srv", dPub, sPub, dialerChallenge[:])...)
	if _, err := conn.Write(msg); err != nil {
		return "", err
	}

	var dialerProof [32]byte
	if _, err := io.ReadFull(conn, dialerProof[:]); err != nil {
		return "", err
	}
	if subtle.ConstantTimeCompare(proof(ak, "cli", dPub, sPub, challenge[:]), dialerProof[:]) != 1 {
		return "", ErrAuthFailed
	}
	return peerAddr, nil
}
