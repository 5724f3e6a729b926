package chaos

import (
	"fmt"
	"sync"
)

// Fabric manages a set of named proxies fronting the daemons of one
// test environment, so partitions can be expressed over sets of
// services ("cut replica 2 and the ASD off") and healed together.
// Per-proxy seeds derive deterministically from the fabric seed and
// the order of creation.
type Fabric struct {
	seed int64

	mu      sync.Mutex
	proxies map[string]*Proxy
	n       int64
}

// NewFabric creates an empty fabric whose proxies derive their fault
// schedules from seed.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		seed:    seed,
		proxies: make(map[string]*Proxy),
	}
}

// Proxy creates (or returns) the named proxy fronting target.
func (f *Fabric) Proxy(name, target string) (*Proxy, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.proxies[name]; ok {
		return p, nil
	}
	f.n++
	p, err := NewProxy(target, dirSeed(f.seed, f.n, 2))
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy %s: %w", name, err)
	}
	f.proxies[name] = p
	return p, nil
}

// Get returns the named proxy, or nil.
func (f *Fabric) Get(name string) *Proxy {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.proxies[name]
}

// Addr returns the client-facing address of the named proxy ("" when
// unknown).
func (f *Fabric) Addr(name string) string {
	if p := f.Get(name); p != nil {
		return p.Addr()
	}
	return ""
}

// Partition cuts the named proxies off: their live connections die
// and new ones are refused, while the rest of the fabric is
// untouched.
func (f *Fabric) Partition(names ...string) {
	for _, n := range names {
		if p := f.Get(n); p != nil {
			p.Partition()
		}
	}
}

// Heal clears all faults on the named proxies (all proxies when none
// are named).
func (f *Fabric) Heal(names ...string) {
	if len(names) == 0 {
		f.mu.Lock()
		proxies := make([]*Proxy, 0, len(f.proxies))
		for _, p := range f.proxies {
			proxies = append(proxies, p)
		}
		f.mu.Unlock()
		for _, p := range proxies {
			p.Heal()
		}
		return
	}
	for _, n := range names {
		if p := f.Get(n); p != nil {
			p.Heal()
		}
	}
}

// Close shuts every proxy down.
func (f *Fabric) Close() {
	f.mu.Lock()
	proxies := make([]*Proxy, 0, len(f.proxies))
	for _, p := range f.proxies {
		proxies = append(proxies, p)
	}
	f.proxies = map[string]*Proxy{}
	f.mu.Unlock()
	for _, p := range proxies {
		p.Close()
	}
}
