package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"

	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// ErrInjected marks a storage fault produced by the injector rather
// than the real store. Callers test with errors.Is and retry.
var ErrInjected = errors.New("chaos: injected storage fault")

// storeRNG derives the deterministic fault stream for a named storage
// wrapper (independent of the link streams).
func (in *Injector) storeRNG(name string) *rand.Rand {
	var h uint64 = 0xCBF29CE484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001B3
	}
	return linkRNG(in.cfg.Seed, h, 0x5704E)
}

// storeFault draws one fault decision from rng under the injector's
// lock (wrappers share the injector's stats map).
func (in *Injector) storeFault(rng *rand.Rand, op string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.StoreFailProb > 0 && rng.Float64() < in.cfg.StoreFailProb {
		in.count("store_faults", 1)
		return fmt.Errorf("%w: %s", ErrInjected, op)
	}
	return nil
}

// FaultyStore wraps an rvm.DataStore, failing operations according to
// the injector's StoreFailProb on a stream keyed by name. Reads that
// fail do so before touching the inner store; writes fail before the
// inner write, so an injected error never leaves partial state.
type FaultyStore struct {
	inner rvm.DataStore
	in    *Injector
	rng   *rand.Rand
}

var _ rvm.DataStore = (*FaultyStore)(nil)

// WrapDataStore attaches the injector to a data store. name keys the
// fault stream — use one name per node so streams are independent.
func WrapDataStore(inner rvm.DataStore, in *Injector, name string) *FaultyStore {
	return &FaultyStore{inner: inner, in: in, rng: in.storeRNG("data/" + name)}
}

// LoadRegion implements rvm.DataStore.
func (f *FaultyStore) LoadRegion(id uint32) ([]byte, error) {
	if err := f.in.storeFault(f.rng, "LoadRegion"); err != nil {
		return nil, err
	}
	return f.inner.LoadRegion(id)
}

// StoreRegion implements rvm.DataStore.
func (f *FaultyStore) StoreRegion(id uint32, data []byte) error {
	if err := f.in.storeFault(f.rng, "StoreRegion"); err != nil {
		return err
	}
	return f.inner.StoreRegion(id, data)
}

// StorePages implements rvm.DataStore, so a checkpoint under fault
// injection sweeps the way it does without: page writes reach the inner
// store as page writes.
func (f *FaultyStore) StorePages(id uint32, pages []rvm.PageWrite) error {
	if err := f.in.storeFault(f.rng, "StorePages"); err != nil {
		return err
	}
	return f.inner.StorePages(id, pages)
}

// Regions implements rvm.DataStore.
func (f *FaultyStore) Regions() ([]uint32, error) {
	if err := f.in.storeFault(f.rng, "Regions"); err != nil {
		return nil, err
	}
	return f.inner.Regions()
}

// Sync implements rvm.DataStore.
func (f *FaultyStore) Sync() error {
	if err := f.in.storeFault(f.rng, "Sync"); err != nil {
		return err
	}
	return f.inner.Sync()
}

// FaultyDevice wraps a wal.Device, failing Append and Sync according
// to the injector's StoreFailProb. An injected Append error surfaces
// to rvm.Tx.Commit before the record reaches the log or any commit
// hook, so the transaction fails cleanly and can be retried.
type FaultyDevice struct {
	wal.Device
	in  *Injector
	rng *rand.Rand
	mu  sync.Mutex
}

// WrapDevice attaches the injector to a log device. name keys the
// fault stream.
func WrapDevice(inner wal.Device, in *Injector, name string) *FaultyDevice {
	return &FaultyDevice{Device: inner, in: in, rng: in.storeRNG("log/" + name)}
}

// Append implements wal.Device.
func (f *FaultyDevice) Append(p []byte) (int64, error) {
	f.mu.Lock()
	err := f.in.storeFault(f.rng, "Append")
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return f.Device.Append(p)
}

// Sync implements wal.Device.
func (f *FaultyDevice) Sync() error {
	f.mu.Lock()
	err := f.in.storeFault(f.rng, "Sync")
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Device.Sync()
}

// --- Connection-drop proxy -----------------------------------------------

// Proxy is a TCP pass-through in front of a storage server. Cut kills
// every live connection (a transient network drop: the server is fine,
// the client's connection is not); Close additionally stops accepting
// (a dead server, forcing failover clients to the next address).
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	cuts   int
}

// NewProxy listens on a fresh localhost port and forwards connections
// to target.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (give this to clients).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Cuts returns how many times Cut has fired.
func (p *Proxy) Cuts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			return
		}
		p.conns[c] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go p.pipe(c, up)
		go p.pipe(up, c)
	}
}

func (p *Proxy) pipe(dst, src net.Conn) {
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// Cut severs every active connection through the proxy. New
// connections are still accepted: the next client request fails, and
// its redial succeeds (transient drop).
func (p *Proxy) Cut() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.conns = map[net.Conn]struct{}{}
	p.cuts++
	p.mu.Unlock()
}

// Close stops the proxy entirely: no new connections, live ones
// severed. Failover clients advance to their next address.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.Cut()
	return err
}
