package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Batch framing: several independently-encoded payloads packed into one
// transport message, so the records committed while a peer's previous
// frame was on the wire ship to it as a single frame instead of one
// message per transaction. Lock tokens carry their records in the same
// layout.
//
// Layout (little endian):
//
//	+0  count u32
//	    count * { len u32, bytes [len] }

// ErrBadBatch reports a structurally invalid batch frame.
var ErrBadBatch = errors.New("netproto: malformed batch frame")

// AppendBatch appends a batch frame carrying parts to buf.
func AppendBatch(buf []byte, parts [][]byte) []byte {
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(parts)))
	buf = append(buf, scratch[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(p)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, p...)
	}
	return buf
}

// SplitBatch decodes a batch frame. The returned parts alias b.
func SplitBatch(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrBadBatch, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	// Each part costs at least its 4-byte length word, so a count beyond
	// len(b)/4 cannot be honest — reject before allocating for it.
	if n > len(b)/4 {
		return nil, fmt.Errorf("%w: count %d exceeds frame size %d", ErrBadBatch, n, len(b))
	}
	p := 4
	parts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if p+4 > len(b) {
			return nil, fmt.Errorf("%w: truncated at part %d", ErrBadBatch, i)
		}
		sz := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if sz < 0 || p+sz > len(b) {
			return nil, fmt.Errorf("%w: part %d overruns frame", ErrBadBatch, i)
		}
		parts = append(parts, b[p:p+sz:p+sz])
		p += sz
	}
	if p != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, len(b)-p)
	}
	return parts, nil
}
