package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Device abstracts the durable home of a log: a local file for
// single-node RVM, or the storage server for the distributed
// configuration (the paper places per-node logs on a central NFS
// server; internal/store plays that role here).
type Device interface {
	// Append writes p at the end of the log and returns the offset at
	// which it was written. Append does not imply durability.
	Append(p []byte) (int64, error)
	// Sync forces all appended data to durable storage (the commit
	// "flush" of RVM's flush mode).
	Sync() error
	// Size returns the current length of the log in bytes.
	Size() (int64, error)
	// Open returns a reader positioned at the given offset, for
	// recovery scans.
	Open(from int64) (io.ReadCloser, error)
	// Truncate discards everything at and after size (used to drop a
	// torn tail discovered during recovery).
	Truncate(size int64) error
	// Reset empties the log. Used after a checkpoint has made every
	// logged update redundant (offline log trimming, §3.5).
	Reset() error
	Close() error
}

// HeadTrimmer is an optional Device extension: discard the prefix
// [0, upTo) in one crash-atomic step, keeping the tail. Online log
// truncation (§3.5) prefers it over the generic read-tail/Reset/re-
// append rewrite, which can lose the tail if the node dies mid-rewrite.
type HeadTrimmer interface {
	TrimHead(upTo int64) error
}

// FileDevice is a Device backed by a local file.
type FileDevice struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFileDevice opens (creating if needed) a file-backed log device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log %s: %w", path, err)
	}
	return &FileDevice{f: f}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off, err := d.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := d.f.Write(p); err != nil {
		return 0, err
	}
	return off, nil
}

// Sync implements Device.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync()
}

// Size implements Device.
func (d *FileDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Open implements Device. The returned reader takes an independent file
// handle so recovery can proceed while the device stays open.
func (d *FileDevice) Open(from int64) (io.ReadCloser, error) {
	f, err := os.Open(d.f.Name())
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Truncate implements Device.
func (d *FileDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Truncate(size)
}

// Reset implements Device.
func (d *FileDevice) Reset() error { return d.Truncate(0) }

// TrimHead implements HeadTrimmer: the tail [upTo, size) is copied to a
// temporary file in the same directory, forced to disk, and renamed over
// the log. The rename is the commit point, so a crash leaves either the
// full old log or the trimmed new one — never a torn rewrite.
func (d *FileDevice) TrimHead(upTo int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if upTo <= 0 {
		return nil
	}
	st, err := d.f.Stat()
	if err != nil {
		return err
	}
	if upTo > st.Size() {
		return fmt.Errorf("wal: trim head %d beyond log end %d", upTo, st.Size())
	}
	path := d.f.Name()
	tmpPath := path + ".trim"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(d.f, upTo, st.Size()-upTo)); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	tmp.Close()
	// The rename commits the trim only once the directory entry is
	// durable: fsync the parent directory, or a crash could resurrect
	// the pre-trim log (harmless for recovery, but the trim would be
	// silently lost again and again).
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: open log directory after trim: %w", err)
	}
	syncErr := dir.Sync()
	dir.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: sync log directory after trim: %w", syncErr)
	}
	// The old descriptor points at the unlinked inode; reopen the path
	// (now the trimmed file) so Append/Open keep working.
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen trimmed log %s: %w", path, err)
	}
	d.f.Close()
	d.f = nf
	return nil
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

// memPageSize is MemDevice's page. Appends fill the tail page, and
// TrimHead, Truncate and CrashUnsynced drop whole pages, so no
// operation copies the log; memFirstPage is where a log's first page
// starts, growing by doubling up to a full page, so a short log does
// not hold a whole page.
const (
	memPageSize  = 1 << 20
	memFirstPage = 4 << 10
)

// MemDevice is an in-memory Device. It is the store server's log for
// every node (internal/store keeps each node's log in one), the
// "disk logging disabled" experiment configuration (§4: "we disabled
// RVM disk logging so that we could isolate the costs associated with
// coherency"), and the test log. It models volatility: Sync advances a
// durable watermark, and CrashUnsynced discards everything above it —
// the fate of no-flush commits in a crash.
//
// The log lives in fixed-size pages, never in one growing slice, so a
// long log is never copied to grow and a trimmed head frees its pages.
// A device holding N bytes keeps at most N + one page allocated, plus
// the trimmed part of its first page.
type MemDevice struct {
	mu       sync.Mutex
	pageSize int
	// pages hold the log from offset head of pages[0] on. Each page's
	// length is its fill: every page but the last is full, so log
	// offset off sits at page (head+off)/pageSize.
	pages  [][]byte
	head   int
	size   int
	syncs  int
	synced int // bytes guaranteed durable
}

// NewMemDevice returns an empty in-memory log device.
func NewMemDevice() *MemDevice { return newPagedMemDevice(memPageSize) }

// newPagedMemDevice returns an empty device with the given page size
// (tests use small pages to cross page boundaries).
func newPagedMemDevice(pageSize int) *MemDevice {
	return &MemDevice{pageSize: pageSize}
}

// Append implements Device.
func (d *MemDevice) Append(p []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := int64(d.size)
	for len(p) > 0 {
		if n := len(d.pages); n == 0 || len(d.pages[n-1]) == d.pageSize {
			d.pages = append(d.pages, nil)
		}
		pg := d.pages[len(d.pages)-1]
		if len(pg) == cap(pg) {
			// Only a log's first page grows; every later page is
			// allocated whole.
			c := d.pageSize
			if len(d.pages) == 1 {
				c = min(d.pageSize, max(2*cap(pg), len(pg)+len(p), memFirstPage))
			}
			pg = append(make([]byte, 0, c), pg...)
		}
		k := copy(pg[len(pg):cap(pg)], p)
		d.pages[len(d.pages)-1] = pg[:len(pg)+k]
		d.size += k
		p = p[k:]
	}
	return off, nil
}

// copyOut copies log bytes from offset off into dst, stopping at the
// log end, and returns how many it copied. The caller holds d.mu and
// has checked 0 <= off <= size.
func (d *MemDevice) copyOut(dst []byte, off int) int {
	n := 0
	for pos := d.head + off; n < len(dst) && off+n < d.size; {
		k := copy(dst[n:], d.pages[pos/d.pageSize][pos%d.pageSize:])
		n += k
		pos += k
	}
	return n
}

// cut drops every log byte at and after offset size, page by page.
func (d *MemDevice) cut(size int) {
	end := d.head + size
	keep := (end + d.pageSize - 1) / d.pageSize
	clear(d.pages[keep:])
	d.pages = d.pages[:keep]
	if keep > 0 {
		d.pages[keep-1] = d.pages[keep-1][:end-(keep-1)*d.pageSize]
	}
	d.size = size
	d.synced = min(d.synced, size)
}

// Sync implements Device: everything appended so far becomes durable.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	d.synced = d.size
	return nil
}

// CrashUnsynced simulates a crash: appended-but-unsynced bytes are
// lost, exactly as a kernel buffer cache would lose them.
func (d *MemDevice) CrashUnsynced() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cut(d.synced)
}

// Syncs returns how many times Sync has been called.
func (d *MemDevice) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Size implements Device.
func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.size), nil
}

// Open implements Device.
func (d *MemDevice) Open(from int64) (io.ReadCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if from < 0 || from > int64(d.size) {
		return nil, fmt.Errorf("wal: offset %d outside log [0, %d]", from, d.size)
	}
	cp := make([]byte, d.size-int(from))
	d.copyOut(cp, int(from))
	return io.NopCloser(bytes.NewReader(cp)), nil
}

// ReadAt implements io.ReaderAt: it copies only [off, off+len(p)), where
// Open copies the whole tail.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off > int64(d.size) {
		return 0, fmt.Errorf("wal: offset %d outside log [0, %d]", off, d.size)
	}
	n := d.copyOut(p, int(off))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Truncate implements Device.
func (d *MemDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 || size > int64(d.size) {
		return fmt.Errorf("wal: truncate %d outside log [0, %d]", size, d.size)
	}
	d.cut(int(size))
	return nil
}

// Reset implements Device.
func (d *MemDevice) Reset() error { return d.Truncate(0) }

// TrimHead implements HeadTrimmer: the pages wholly below upTo are
// dropped and the tail stays where it is. The swap is atomic under the
// device mutex; the durable watermark shifts with the data.
func (d *MemDevice) TrimHead(upTo int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if upTo < 0 || upTo > int64(d.size) {
		return fmt.Errorf("wal: trim head %d outside log [0, %d]", upTo, d.size)
	}
	d.head += int(upTo)
	d.size -= int(upTo)
	d.synced = max(d.synced-int(upTo), 0)
	drop := d.head / d.pageSize
	d.pages = slices.Delete(d.pages, 0, drop)
	d.head -= drop * d.pageSize
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// Bytes returns a copy of the device contents.
func (d *MemDevice) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := make([]byte, d.size)
	d.copyOut(cp, 0)
	return cp
}
