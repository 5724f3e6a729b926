package wire

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// CA is the in-memory certificate authority of one ACE environment.
// Every daemon obtains a certificate from it at startup; all command
// connections are then mutually authenticated TLS. This stands in for
// the paper's SSL deployment with an offline-provisioned keystore.
type CA struct {
	cert *x509.Certificate
	key  *ecdsa.PrivateKey
	pool *x509.CertPool

	mu     sync.Mutex
	serial int64
}

// NewCA creates a fresh environment CA.
func NewCA(envName string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("wire: generate CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "ACE CA " + envName, Organization: []string{"ACE"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("wire: self-sign CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &CA{cert: cert, key: key, pool: pool, serial: 1}, nil
}

// Issue creates a leaf certificate for a daemon or client with the
// given name, valid for loopback use.
func (ca *CA) Issue(name string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: name, Organization: []string{"ACE"}},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		DNSNames:     []string{name, "localhost"},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("wire: issue cert for %s: %w", name, err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// Pool returns the certificate pool trusting this CA.
func (ca *CA) Pool() *x509.CertPool { return ca.pool }

// Transport bundles the TLS material one daemon uses for both server
// and client roles. A nil Transport (or Plaintext=true) disables
// encryption, which exists only for the E12 overhead experiment.
type Transport struct {
	// Name is the daemon identity baked into its certificate.
	Name string
	// CA is the environment authority.
	CA *CA
	// Cert is this party's leaf certificate.
	Cert tls.Certificate
	// Plaintext disables TLS entirely (benchmarks only).
	Plaintext bool
}

// NewTransport issues a certificate for name from ca.
func NewTransport(ca *CA, name string) (*Transport, error) {
	cert, err := ca.Issue(name)
	if err != nil {
		return nil, err
	}
	return &Transport{Name: name, CA: ca, Cert: cert}, nil
}

// ServerConfig returns the TLS config for accepting command
// connections: it presents the daemon certificate and requires a
// client certificate signed by the environment CA (mutual auth).
// Returns nil when the transport is plaintext.
func (t *Transport) ServerConfig() *tls.Config {
	if t == nil || t.Plaintext {
		return nil
	}
	return &tls.Config{
		Certificates: []tls.Certificate{t.Cert},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    t.CA.Pool(),
		MinVersion:   tls.VersionTLS13,
	}
}

// ClientConfig returns the TLS config for dialing another daemon.
// serverName may be empty when the peer identity is unknown (the
// certificate is still validated against the CA chain).
func (t *Transport) ClientConfig(serverName string) *tls.Config {
	if t == nil || t.Plaintext {
		return nil
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{t.Cert},
		RootCAs:      t.CA.Pool(),
		MinVersion:   tls.VersionTLS13,
	}
	if serverName != "" {
		cfg.ServerName = serverName
	} else {
		// Peer daemons are addressed host:port out of the ASD; trust
		// is anchored in the CA, not in the DNS name.
		cfg.InsecureSkipVerify = true
		cfg.VerifyPeerCertificate = func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
			if len(rawCerts) == 0 {
				return fmt.Errorf("wire: peer presented no certificate")
			}
			cert, err := x509.ParseCertificate(rawCerts[0])
			if err != nil {
				return err
			}
			_, err = cert.Verify(x509.VerifyOptions{Roots: t.CA.Pool(), KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth}})
			return err
		}
	}
	return cfg
}
