// Package store implements the logically centralized storage service of
// the paper's client/server configuration: it holds the permanent
// database (region images) and one redo log per client node. The
// prototype used an NFS server for this role (§3); here it is an
// explicit TCP service whose client implements rvm.DataStore and
// wal.Device, so the RVM core is oblivious to whether its log and
// database are local files or remote.
//
// The server is deliberately dumb — it does not interpret log records.
// Recovery (merging the per-node logs and replaying them into the
// database images) is driven by clients/utilities via cmd/logmerge and
// cmd/rvmrecover, as in the paper's offline trimming scheme (§3.5).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Request/response opcodes. The values are wire codes; retired codes
// (5, 12-14 and 16-19) are not reused.
const (
	opLoadRegion  uint8 = 1
	opStoreRegion uint8 = 2
	opListRegions uint8 = 3
	opSyncData    uint8 = 4
	opSyncLog     uint8 = 6
	opLogSize     uint8 = 7
	opReadLog     uint8 = 8
	opTruncateLog uint8 = 9
	opResetLog    uint8 = 10
	opListLogs    uint8 = 11
	opAppendLogAt uint8 = 15 // {node u32, expected u64, data} -> {newSize u64} | behind{size u64}

	// Page-granular image writes (rvm.DataStore.StorePages): the
	// incremental checkpoint's sweep. A single page is a batch of one.
	opStorePages uint8 = 20 // {region u32, (off u64, len u32, bytes)*} -> {}
)

const (
	statusOK     uint8 = 0
	statusErr    uint8 = 1
	statusBehind uint8 = 2 // AppendLogAt against a log missing the prefix
)

const maxMsg = 1 << 30

// maxImage caps how far a page write may grow a region image: an image
// must still fit in one LoadRegion response (status byte + image).
const maxImage = maxMsg - 1

// Server is the storage service. Region images are kept in the given
// rvm.DataStore; per-node logs are created on demand via the device
// factory.
type Server struct {
	ln    net.Listener
	data  rvm.DataStore
	stats *metrics.Stats

	mu      sync.Mutex
	logs    map[uint32]wal.Device
	mkLog   func(node uint32) (wal.Device, error)
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  chan struct{}
	closeMu sync.Once

	logOpMu sync.Mutex
	logOps  map[uint32]*sync.Mutex

	mirrorState
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Data holds region images. Defaults to an in-memory store.
	Data rvm.DataStore
	// NewLog creates the log device for a node's log, on first use.
	// Defaults to in-memory devices.
	NewLog func(node uint32) (wal.Device, error)
}

// NewServer starts a storage server listening on addr (e.g.
// "127.0.0.1:0").
func NewServer(addr string, opts ServerOptions) (*Server, error) {
	if opts.Data == nil {
		opts.Data = rvm.NewMemStore()
	}
	if opts.NewLog == nil {
		opts.NewLog = func(uint32) (wal.Device, error) { return wal.NewMemDevice(), nil }
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("store: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:     ln,
		data:   opts.Data,
		stats:  metrics.NewStats(),
		logs:   map[uint32]wal.Device{},
		mkLog:  opts.NewLog,
		conns:  map[net.Conn]struct{}{},
		closed: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Data exposes the server's region store (for offline utilities that
// run colocated with the server).
func (s *Server) Data() rvm.DataStore { return s.data }

// Stats exposes the server's op counters (requests and bytes per
// opcode) for the /debug/lbc endpoint.
func (s *Server) Stats() *metrics.Stats { return s.stats }

// Log returns the log device for a node, creating it if necessary.
func (s *Server) Log(node uint32) (wal.Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.logs[node]; ok {
		return d, nil
	}
	d, err := s.mkLog(node)
	if err != nil {
		return nil, err
	}
	s.logs[node] = d
	return d, nil
}

// Logs lists node ids that have logs.
func (s *Server) Logs() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.logs))
	for id := range s.logs {
		ids = append(ids, id)
	}
	return ids
}

// Close shuts the server down, severing active client connections.
func (s *Server) Close() error {
	s.closeMu.Do(func() {
		close(s.closed)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			c.Close()
			continue
		default:
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for {
		req, err := readMsg(c)
		if err != nil {
			return
		}
		if len(req) == 0 {
			return
		}
		s.stats.Add(opCounter(req[0]), 1)
		s.stats.Add("op_bytes_in", int64(len(req)))
		start := time.Now()
		resp, err := s.handle(req[0], req[1:])
		if err == nil {
			err = s.forwardToMirror(req[0], req[1:])
		}
		if isWriteOp(req[0]) {
			s.stats.Observe(metrics.HistStoreServeWriteNS, time.Since(start).Nanoseconds())
		} else {
			s.stats.Observe(metrics.HistStoreServeReadNS, time.Since(start).Nanoseconds())
		}
		if err != nil {
			var behind *logBehind
			if errors.As(err, &behind) {
				var sz [8]byte
				binary.LittleEndian.PutUint64(sz[:], uint64(behind.size))
				if werr := writeMsg(c, statusBehind, sz[:]); werr != nil {
					return
				}
				continue
			}
			s.stats.Add("op_errors", 1)
			resp = []byte(err.Error())
			if werr := writeMsg(c, statusErr, resp); werr != nil {
				return
			}
			continue
		}
		if err := writeMsg(c, statusOK, resp); err != nil {
			return
		}
	}
}

// opCounter maps a request opcode to its stats counter name.
func opCounter(op uint8) string {
	switch op {
	case opLoadRegion:
		return "op_load_region"
	case opStoreRegion:
		return "op_store_region"
	case opListRegions:
		return "op_list_regions"
	case opSyncData:
		return "op_sync_data"
	case opSyncLog:
		return "op_sync_log"
	case opLogSize:
		return "op_log_size"
	case opReadLog:
		return "op_read_log"
	case opTruncateLog:
		return "op_truncate_log"
	case opResetLog:
		return "op_reset_log"
	case opListLogs:
		return "op_list_logs"
	case opAppendLogAt:
		return "op_append_log_at"
	case opStorePages:
		return "op_store_pages"
	default:
		return "op_unknown"
	}
}

// isWriteOp classifies an opcode for the serve-latency histograms.
func isWriteOp(op uint8) bool {
	switch op {
	case opStoreRegion, opSyncData, opSyncLog, opTruncateLog, opResetLog,
		opAppendLogAt, opStorePages:
		return true
	}
	return false
}

func (s *Server) handle(op uint8, body []byte) ([]byte, error) {
	switch op {
	case opLoadRegion:
		if len(body) != 4 {
			return nil, errors.New("store: bad LoadRegion request")
		}
		id := binary.LittleEndian.Uint32(body)
		img, err := s.data.LoadRegion(id)
		if err != nil {
			return nil, err
		}
		return img, nil

	case opStoreRegion:
		if len(body) < 4 {
			return nil, errors.New("store: bad StoreRegion request")
		}
		id := binary.LittleEndian.Uint32(body)
		return nil, s.data.StoreRegion(id, body[4:])

	case opStorePages:
		id, pages, err := decodeStorePages(body)
		if err != nil {
			return nil, err
		}
		// Image bytes written; not an op_* name, which count requests.
		s.stats.Add("store_pages_bytes", int64(len(body)-4-12*len(pages)))
		return nil, s.data.StorePages(id, pages)

	case opListRegions:
		ids, err := s.data.Regions()
		if err != nil {
			return nil, err
		}
		return encodeIDs(ids), nil

	case opSyncData:
		return nil, s.data.Sync()

	case opSyncLog:
		if len(body) != 4 {
			return nil, errors.New("store: bad SyncLog request")
		}
		dev, err := s.Log(binary.LittleEndian.Uint32(body))
		if err != nil {
			return nil, err
		}
		return nil, dev.Sync()

	case opLogSize:
		if len(body) != 4 {
			return nil, errors.New("store: bad LogSize request")
		}
		dev, err := s.Log(binary.LittleEndian.Uint32(body))
		if err != nil {
			return nil, err
		}
		sz, err := dev.Size()
		if err != nil {
			return nil, err
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(sz))
		return out[:], nil

	case opReadLog:
		if len(body) != 12 {
			return nil, errors.New("store: bad ReadLog request")
		}
		dev, err := s.Log(binary.LittleEndian.Uint32(body))
		if err != nil {
			return nil, err
		}
		return readLog(dev, int64(binary.LittleEndian.Uint64(body[4:])))

	case opTruncateLog:
		if len(body) != 12 {
			return nil, errors.New("store: bad TruncateLog request")
		}
		node := binary.LittleEndian.Uint32(body)
		size := int64(binary.LittleEndian.Uint64(body[4:]))
		if size < 0 {
			return nil, fmt.Errorf("store: TruncateLog size %d out of range", size)
		}
		dev, err := s.Log(node)
		if err != nil {
			return nil, err
		}
		mu := s.logOpLock(node)
		mu.Lock()
		defer mu.Unlock()
		return nil, dev.Truncate(size)

	case opResetLog:
		if len(body) != 4 {
			return nil, errors.New("store: bad ResetLog request")
		}
		node := binary.LittleEndian.Uint32(body)
		dev, err := s.Log(node)
		if err != nil {
			return nil, err
		}
		mu := s.logOpLock(node)
		mu.Lock()
		defer mu.Unlock()
		return nil, dev.Reset()

	case opListLogs:
		return encodeIDs(s.Logs()), nil

	case opAppendLogAt:
		return s.handleAppendLogAt(body)

	default:
		return nil, fmt.Errorf("store: unknown op %d", op)
	}
}

// logOpLock returns the mutex serializing mutations of one node's log.
// Log ops from different connections run on different goroutines; the
// offset-guard handler reads the size and then mutates, so the check and
// the mutation must be atomic per log or two racing appends could both
// pass the same guard.
func (s *Server) logOpLock(node uint32) *sync.Mutex {
	s.logOpMu.Lock()
	defer s.logOpMu.Unlock()
	if s.logOps == nil {
		s.logOps = map[uint32]*sync.Mutex{}
	}
	m := s.logOps[node]
	if m == nil {
		m = &sync.Mutex{}
		s.logOps[node] = m
	}
	return m
}

// logBehind reports an AppendLogAt whose expected offset lies beyond
// the log's end: the log is missing a prefix and cannot accept the
// record. serveConn turns it into a statusBehind response instead of a
// plain error.
type logBehind struct{ size int64 }

func (e *logBehind) Error() string {
	return fmt.Sprintf("store: log behind, size %d", e.size)
}

// handleAppendLogAt serves {node u32, expected u64, data} ->
// {newSize u64}. The append applies only at the expected offset:
//   - size == expected: plain append.
//   - size >= expected+len: possible duplicate — the existing bytes at
//     [expected, expected+len) are compared; identical content acks
//     idempotently (a retry after a lost ack, or a failover to a mirror
//     that already applied the forwarded copy), divergent content is
//     truncated away and overwritten with the new record.
//   - expected < size < expected+len: torn or divergent tail —
//     truncated to expected, then appended.
//   - size < expected: the log is behind; statusBehind carries its
//     current size so the client can re-home its append offset.
func (s *Server) handleAppendLogAt(body []byte) ([]byte, error) {
	if len(body) < 12 {
		return nil, errors.New("store: bad AppendLogAt request")
	}
	node := binary.LittleEndian.Uint32(body)
	expected := int64(binary.LittleEndian.Uint64(body[4:]))
	data := body[12:]
	dev, err := s.Log(node)
	if err != nil {
		return nil, err
	}
	mu := s.logOpLock(node)
	mu.Lock()
	defer mu.Unlock()
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	switch {
	case size < expected:
		return nil, &logBehind{size: size}

	case size == expected:
		// Plain append at the tail.

	case size >= expected+int64(len(data)):
		same, err := tailEquals(dev, expected, data)
		if err != nil {
			return nil, err
		}
		if same {
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], uint64(size))
			return out[:], nil
		}
		if err := dev.Truncate(expected); err != nil {
			return nil, err
		}

	default: // expected < size < expected+len: torn tail
		if err := dev.Truncate(expected); err != nil {
			return nil, err
		}
	}
	off, err := dev.Append(data)
	if err != nil {
		return nil, err
	}
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(off)+uint64(len(data)))
	return out[:], nil
}

// tailEquals reports whether the device holds exactly data at
// [off, off+len(data)).
func tailEquals(dev interface {
	Open(from int64) (io.ReadCloser, error)
}, off int64, data []byte) (bool, error) {
	rc, err := dev.Open(off)
	if err != nil {
		return false, err
	}
	defer rc.Close()
	buf := make([]byte, len(data))
	if _, err := io.ReadFull(rc, buf); err != nil {
		return false, err
	}
	for i := range buf {
		if buf[i] != data[i] {
			return false, nil
		}
	}
	return true, nil
}

// encodeStorePages builds an opStorePages body: the region id, then one
// {off u64, len u32, bytes} entry per write.
func encodeStorePages(id uint32, pages []rvm.PageWrite) []byte {
	n := 4
	for _, p := range pages {
		n += 12 + len(p.Data)
	}
	b := make([]byte, 4, n)
	binary.LittleEndian.PutUint32(b, id)
	for _, p := range pages {
		var hdr [12]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(p.Off))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Data)))
		b = append(append(b, hdr[:]...), p.Data...)
	}
	return b
}

// decodeStorePages parses and validates an opStorePages body. The
// request comes off the network, so nothing is applied unless every
// entry is whole, the entries account for the body exactly, and no write
// reaches past maxImage (a hostile offset must not size an allocation).
// The returned pages alias body.
func decodeStorePages(body []byte) (uint32, []rvm.PageWrite, error) {
	if len(body) < 4 {
		return 0, nil, errors.New("store: bad StorePages request")
	}
	id := binary.LittleEndian.Uint32(body)
	var pages []rvm.PageWrite
	for rest := body[4:]; len(rest) > 0; {
		if len(rest) < 12 {
			return 0, nil, errors.New("store: StorePages entry header truncated")
		}
		off := binary.LittleEndian.Uint64(rest)
		n := uint64(binary.LittleEndian.Uint32(rest[8:]))
		rest = rest[12:]
		if n > uint64(len(rest)) {
			return 0, nil, errors.New("store: StorePages entry longer than the request")
		}
		// off is checked alone first: off+n cannot wrap once off is small.
		if off > maxImage || off+n > maxImage {
			return 0, nil, fmt.Errorf("store: page write [%d,+%d) past the %d-byte image cap", off, n, maxImage)
		}
		pages = append(pages, rvm.PageWrite{Off: int64(off), Data: rest[:n:n]})
		rest = rest[n:]
	}
	return id, pages, nil
}

func encodeIDs(ids []uint32) []byte {
	out := make([]byte, 4+4*len(ids))
	binary.LittleEndian.PutUint32(out, uint32(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(out[4+4*i:], id)
	}
	return out
}

func decodeIDs(b []byte) ([]uint32, error) {
	if len(b) < 4 {
		return nil, errors.New("store: short id list")
	}
	n := binary.LittleEndian.Uint32(b)
	if len(b) != int(4+4*n) {
		return nil, errors.New("store: malformed id list")
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(b[4+4*i:])
	}
	return ids, nil
}

// readMsg reads one length-prefixed message. The buffer grows in place
// as data actually arrives, by at least a chunk and otherwise by
// append's growth policy, so its size stays within a constant factor of
// the bytes received plus one chunk: a hostile length prefix cannot
// force a huge upfront allocation.
func readMsg(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxMsg {
		return nil, fmt.Errorf("store: message too large: %d", n)
	}
	const chunk = 1 << 20
	b := make([]byte, 0, min(n, chunk))
	for len(b) < n {
		start := len(b)
		b = slices.Grow(b, min(n-start, chunk))
		b = b[:min(n, cap(b))]
		if _, err := io.ReadFull(r, b[start:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// readLog returns node log bytes from offset from on. An in-memory log
// (wal.MemDevice, an io.ReaderAt) is copied once into an exactly sized
// buffer; its Open would copy the whole tail first. A file log
// (wal.FileDevice) streams through Open, which reads its own file handle
// and takes no device lock, so a long read does not hold up that node's
// appends and syncs.
func readLog(dev wal.Device, from int64) ([]byte, error) {
	ra, ok := dev.(io.ReaderAt)
	if !ok {
		rc, err := dev.Open(from)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}
	size, err := dev.Size()
	if err != nil {
		return nil, err
	}
	if from < 0 || from > size {
		return nil, fmt.Errorf("store: offset %d beyond log end %d", from, size)
	}
	buf := make([]byte, size-from)
	k, err := ra.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:k], nil
}

// writeMsg writes status byte + body as one length-prefixed message.
func writeMsg(w io.Writer, status uint8, body []byte) error {
	hdr := make([]byte, 5)
	binary.LittleEndian.PutUint32(hdr, uint32(1+len(body)))
	hdr[4] = status
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		_, err := w.Write(body)
		return err
	}
	return nil
}

// writeReq writes op byte + body as one length-prefixed message.
func writeReq(w io.Writer, op uint8, body []byte) error {
	hdr := make([]byte, 5)
	binary.LittleEndian.PutUint32(hdr, uint32(1+len(body)))
	hdr[4] = op
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		_, err := w.Write(body)
		return err
	}
	return nil
}
