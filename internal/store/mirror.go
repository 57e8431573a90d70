package store

import (
	"fmt"
	"sync"
)

// Mirroring implements the paper's aside that "the storage service
// could be transparently replicated to reduce the probability of a
// server failure" (§2). A primary server forwards every mutating
// operation — region writes, log appends, truncations, resets — to a
// backup server before acknowledging the client, so the backup can
// take over with identical images and logs (synchronous primary/backup
// replication). Reads are served locally.

// Mirror attaches a backup to the server. Safe to call once, before
// clients connect.
func (s *Server) Mirror(backup *Client) {
	s.mirrorMu.Lock()
	defer s.mirrorMu.Unlock()
	s.mirror = backup
}

// mirrorClient returns the attached backup, if any.
func (s *Server) mirrorClient() *Client {
	s.mirrorMu.RLock()
	defer s.mirrorMu.RUnlock()
	return s.mirror
}

// forwardToMirror replays a mutating request on the backup. The
// primary has already applied it locally; a mirror error is returned
// to the client so it knows durability is degraded.
func (s *Server) forwardToMirror(op uint8, body []byte) error {
	m := s.mirrorClient()
	if m == nil {
		return nil
	}
	if !isWriteOp(op) {
		return nil
	}
	if _, err := m.call(op, body); err != nil {
		return fmt.Errorf("store: mirror: %w", err)
	}
	return nil
}

// mirrorState adds the fields Server needs; kept separate so the main
// server file stays focused.
type mirrorState struct {
	mirrorMu sync.RWMutex
	mirror   *Client
}

// ReplicaPair bundles a primary and backup for tests and tools.
type ReplicaPair struct {
	Primary *Server
	Backup  *Server
	link    *Client
}

// NewReplicaPair starts a primary and a backup server; the primary
// mirrors every mutation to the backup.
func NewReplicaPair(primaryAddr, backupAddr string, opts ServerOptions) (*ReplicaPair, error) {
	backup, err := NewServer(backupAddr, ServerOptions{})
	if err != nil {
		return nil, err
	}
	primary, err := NewServer(primaryAddr, opts)
	if err != nil {
		backup.Close()
		return nil, err
	}
	link, err := Dial(backup.Addr())
	if err != nil {
		primary.Close()
		backup.Close()
		return nil, err
	}
	primary.Mirror(link)
	return &ReplicaPair{Primary: primary, Backup: backup, link: link}, nil
}

// FailPrimary simulates a primary crash; clients re-dial the backup.
func (p *ReplicaPair) FailPrimary() {
	p.Primary.Close()
	p.link.Close()
}

// Close shuts both servers down.
func (p *ReplicaPair) Close() {
	p.link.Close()
	p.Primary.Close()
	p.Backup.Close()
}
