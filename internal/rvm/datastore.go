package rvm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrNoRegion is returned by DataStore.LoadRegion when the store has no
// image for the requested region (a fresh database).
var ErrNoRegion = errors.New("rvm: no such region in data store")

// DataStore is the permanent home of region images — the "permanent
// database file" of the paper. The centralized storage service
// (internal/store) implements this interface over the network; MemStore
// and DirStore implement it locally.
type DataStore interface {
	// LoadRegion returns a copy of the region's permanent image, or
	// ErrNoRegion.
	LoadRegion(id uint32) ([]byte, error)
	// StoreRegion replaces the region's permanent image (checkpoint /
	// recovery writeback).
	StoreRegion(id uint32, data []byte) error
	// StorePages writes pages of a region image in place, growing the
	// image as needed (the incremental checkpoint's sweep). The writes
	// apply in order (a later write to the same bytes wins) but not
	// atomically: a crash mid-batch leaves a prefix applied, which
	// replay from the previous checkpoint repairs. A single page is a
	// batch of one.
	StorePages(id uint32, pages []PageWrite) error
	// Regions lists the ids of stored regions.
	Regions() ([]uint32, error)
	// Sync forces stored images to durable media.
	Sync() error
}

// MemStore is an in-memory DataStore for tests and disk-free
// experiment configurations.
type MemStore struct {
	mu      sync.Mutex
	regions map[uint32][]byte
}

// NewMemStore returns an empty in-memory data store.
func NewMemStore() *MemStore { return &MemStore{regions: map[uint32][]byte{}} }

// LoadRegion implements DataStore.
func (s *MemStore) LoadRegion(id uint32) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.regions[id]
	if !ok {
		return nil, ErrNoRegion
	}
	cp := make([]byte, len(img))
	copy(cp, img)
	return cp, nil
}

// StoreRegion implements DataStore.
func (s *MemStore) StoreRegion(id uint32, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.regions[id] = cp
	return nil
}

// StorePages implements DataStore: the writes land in place, in order,
// growing the image once to the furthest byte any of them reaches.
func (s *MemStore) StorePages(id uint32, pages []PageWrite) error {
	need, err := pagesExtent(pages)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.regions[id]
	if int64(len(img)) < need {
		grown := make([]byte, need)
		copy(grown, img)
		img = grown
	}
	for _, p := range pages {
		copy(img[p.Off:], p.Data)
	}
	s.regions[id] = img
	return nil
}

// Regions implements DataStore.
func (s *MemStore) Regions() ([]uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.regions))
	for id := range s.regions {
		ids = append(ids, id)
	}
	return ids, nil
}

// Sync implements DataStore (no-op).
func (s *MemStore) Sync() error { return nil }

// DirStore is a DataStore backed by a local directory, one file per
// region. This is the single-node RVM configuration (database file on
// local disk).
type DirStore struct {
	dir string
	mu  sync.Mutex
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rvm: create data dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) regionPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("region-%d.db", id))
}

// LoadRegion implements DataStore.
func (s *DirStore) LoadRegion(id uint32) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := os.ReadFile(s.regionPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoRegion
	}
	return b, err
}

// StoreRegion implements DataStore. The image is written to a temp file
// and renamed so a crash mid-checkpoint never corrupts the old image.
func (s *DirStore) StoreRegion(id uint32, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.regionPath(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.regionPath(id))
}

// StorePages implements DataStore: page writes go straight into the
// image file with WriteAt, forced once per batch. In-place page writes
// are safe here because the log head is trimmed only after a full sweep
// completes, so a crash mid-page is always repaired by replay.
func (s *DirStore) StorePages(id uint32, pages []PageWrite) error {
	if _, err := pagesExtent(pages); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(s.regionPath(id), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, p := range pages {
		if _, err := f.WriteAt(p.Data, p.Off); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Regions implements DataStore.
func (s *DirStore) Regions() ([]uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, e := range ents {
		var id uint32
		if n, _ := fmt.Sscanf(e.Name(), "region-%d.db", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Sync implements DataStore. Directory contents were written with
// rename, so syncing the directory suffices on POSIX systems.
func (s *DirStore) Sync() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
