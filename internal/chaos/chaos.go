// Package chaos is a deterministic fault-injection harness for the
// ACE communication stack. A Proxy is an in-process TCP relay that
// sits between any wire client and a daemon and can, per connection
// and per direction, inject latency, refuse or blackhole traffic,
// drop whole frames, truncate frames mid-payload, and flip payload
// bytes. Every probabilistic decision is drawn from a PRNG derived
// deterministically from (proxy seed, connection index, direction),
// so a failure schedule reproduces exactly under the same seed — the
// property the chaos integration tests rely on.
//
// Frame-level faults (DropProb, FlipProb, TruncateProb) parse the
// wire package's 4-byte length-prefixed framing and therefore only
// make sense on plaintext connections; the stream-level faults
// (latency, partition, blackhole) work under TLS too, since they
// never inspect bytes.
package chaos

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Faults describes the active failure modes of one Proxy. The zero
// value forwards traffic untouched.
type Faults struct {
	// RefuseConns makes the proxy accept and immediately close new
	// connections (a partitioned peer: dial succeeds at TCP level but
	// the service is unreachable). Existing connections are killed by
	// Proxy.Partition, not by this flag alone.
	RefuseConns bool
	// Blackhole silently discards forwarded data in both directions:
	// connections stay up, requests vanish, replies never come. This
	// is the "peer stalls" failure mode that exercises call deadlines.
	Blackhole bool
	// Latency is added before each forwarded frame (or chunk, in raw
	// mode) in each direction.
	Latency time.Duration
	// DropProb is the per-frame probability of silently dropping the
	// frame (delivery gap without killing the connection).
	DropProb float64
	// FlipProb is the per-frame probability of flipping one random
	// payload byte (corruption the parser or application must catch).
	FlipProb float64
	// TruncateProb is the per-frame probability of forwarding the
	// header and only half the payload, then killing the connection
	// (a crashed peer mid-frame).
	TruncateProb float64
}

func (f Faults) frameAware() bool {
	return f.DropProb > 0 || f.FlipProb > 0 || f.TruncateProb > 0
}

// Proxy relays TCP connections to a target address, applying the
// configured faults. Safe for concurrent use.
type Proxy struct {
	ln   net.Listener
	seed int64

	mu      sync.Mutex
	target  string
	faults  Faults
	conns   map[net.Conn]struct{}
	connSeq int64
	closed  bool

	wg sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and relays to target.
// All probabilistic fault decisions derive from seed.
func NewProxy(target string, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{ln: ln, seed: seed, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Target returns the current backend address.
func (p *Proxy) Target() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// SetTarget retargets future connections, e.g. after the backend
// daemon restarted on a new port. The proxy address stays stable, so
// clients keep a fixed view of the service across backend restarts.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// SetFaults replaces the active fault set.
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// CurrentFaults snapshots the active fault set.
func (p *Proxy) CurrentFaults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Partition cuts the proxy off: new connections are refused and every
// live connection is killed. Heal undoes it.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.faults.RefuseConns = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal clears every fault; traffic flows untouched again.
func (p *Proxy) Heal() { p.SetFaults(Faults{}) }

// Close shuts the proxy down and severs all relayed connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

// track registers a relayed connection so Partition and Close can kill
// it. A relay accepted before Partition and still dialling its target
// when Partition killed the tracked ones is refused here, under the
// lock Partition set RefuseConns under, or it would carry traffic
// across the partition.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.faults.RefuseConns {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.connSeq++
		id := p.connSeq
		refuse := p.faults.RefuseConns
		target := p.target
		closed := p.closed
		p.mu.Unlock()
		if closed || refuse {
			client.Close()
			continue
		}
		p.wg.Add(1)
		go p.relay(client, target, id)
	}
}

// dirSeed derives the deterministic PRNG seed for one direction of
// one connection. Each direction owns its PRNG, so goroutine
// interleaving between directions cannot perturb the schedule.
func dirSeed(seed, connID int64, dir int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(connID)*0xBF58476D1CE4E5B9 + uint64(dir+1)*0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}

func (p *Proxy) relay(client net.Conn, target string, id int64) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		client.Close()
		return
	}
	if !p.track(client) || !p.track(server) {
		client.Close()
		server.Close()
		p.untrack(client)
		return
	}
	defer func() {
		client.Close()
		server.Close()
		p.untrack(client)
		p.untrack(server)
	}()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pipe(server, client, rand.New(rand.NewSource(dirSeed(p.seed, id, 0))))
	}()
	go func() {
		defer wg.Done()
		p.pipe(client, server, rand.New(rand.NewSource(dirSeed(p.seed, id, 1))))
	}()
	wg.Wait()
}

// pipe forwards src→dst applying the proxy's current faults. When any
// frame-level fault is configured it reads whole 4-byte
// length-prefixed frames so that fault decisions are consumed exactly
// once per frame — the unit that makes schedules deterministic.
func (p *Proxy) pipe(dst, src net.Conn, rng *rand.Rand) {
	buf := make([]byte, 64*1024)
	var hdr [4]byte
	for {
		// The mode (raw vs frame-parsing) is decided before the
		// blocking read; the faults actually applied are re-snapshotted
		// after it, so a fault flipped while the pipe was idle takes
		// effect on the very next chunk.
		if !p.CurrentFaults().frameAware() {
			// Raw mode: chunk-level forwarding (works under TLS).
			n, err := src.Read(buf)
			if n > 0 {
				f := p.CurrentFaults()
				if f.Latency > 0 {
					time.Sleep(f.Latency)
				}
				if !f.Blackhole {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						return
					}
				}
			}
			if err != nil {
				if cw, ok := dst.(*net.TCPConn); ok {
					cw.CloseWrite() //nolint:errcheck
				}
				return
			}
			continue
		}

		// Frame mode.
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			if cw, ok := dst.(*net.TCPConn); ok {
				cw.CloseWrite() //nolint:errcheck
			}
			return
		}
		size := binary.BigEndian.Uint32(hdr[:])
		if size > 1<<24 {
			// Nonsense framing (or encrypted traffic): bail out rather
			// than buffer gigabytes.
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		f := p.CurrentFaults()

		// One decision per knob per frame, always consumed in the same
		// order, so the schedule depends only on the seed and the
		// frame index — never on timing.
		drop := f.DropProb > 0 && rng.Float64() < f.DropProb
		flip := f.FlipProb > 0 && rng.Float64() < f.FlipProb
		trunc := f.TruncateProb > 0 && rng.Float64() < f.TruncateProb
		flipAt := 0
		if len(payload) > 0 {
			flipAt = rng.Intn(len(payload))
		}

		if f.Latency > 0 {
			time.Sleep(f.Latency)
		}
		if f.Blackhole || drop {
			continue
		}
		if flip && len(payload) > 0 {
			payload[flipAt] ^= 0xFF
		}
		if trunc {
			// Advertise the full length but deliver only half, then
			// kill the connection: the receiver sees ErrUnexpectedEOF.
			dst.Write(hdr[:])           //nolint:errcheck
			dst.Write(payload[:size/2]) //nolint:errcheck
			dst.Close()
			src.Close()
			return
		}
		if _, err := dst.Write(hdr[:]); err != nil {
			return
		}
		if _, err := dst.Write(payload); err != nil {
			return
		}
	}
}
