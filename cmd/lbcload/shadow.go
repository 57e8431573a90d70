package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Segment layout: a 16-byte header (u64 write counter, u32 CRC-32C of
// the payload, u32 zero) followed by the payload.
const hdrLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func putHeader(seg []byte, counter uint64) {
	binary.LittleEndian.PutUint64(seg[0:8], counter)
	binary.LittleEndian.PutUint32(seg[8:12], crc32.Checksum(seg[hdrLen:], castagnoli))
	binary.LittleEndian.PutUint32(seg[12:16], 0)
}

func headerCounter(seg []byte) uint64 { return binary.LittleEndian.Uint64(seg[0:8]) }

// shadow is the generator's model of the region: what every node's
// image must converge to. A writer updates its segment while it holds
// that segment's distributed lock, so the model follows lock order
// without knowing it in advance. The per-segment mutex adds nothing to
// that exclusion; it gives the Go memory model (and the race detector)
// the happens-before edge that otherwise runs through TCP sockets.
type shadow struct {
	geo geometry
	img []byte
	mu  []sync.Mutex
}

func newShadow(geo geometry) *shadow {
	return &shadow{geo: geo, img: make([]byte, geo.size()), mu: make([]sync.Mutex, geo.segs)}
}

func (s *shadow) seg(i int) []byte { return s.img[i*s.geo.segLen : (i+1)*s.geo.segLen] }

// fillPattern writes a salt-derived 16-byte pattern across p: unique
// enough that a misapplied range diverges the images, regular enough
// that batched frames compress as structured records do.
func fillPattern(p []byte, salt uint32, k int) {
	r := rng(uint64(salt)<<20 | uint64(k))
	var pat [16]byte
	binary.LittleEndian.PutUint64(pat[0:8], r.next())
	binary.LittleEndian.PutUint64(pat[8:16], r.next())
	for i := range p {
		p[i] = pat[i%len(pat)]
	}
}

// slotOffsets returns count payload offsets of size-byte slots chosen
// from salt, distinct while the payload has that many slots.
func slotOffsets(dst []int, segLen int, salt uint32, count, size int) []int {
	slots := (segLen - hdrLen) / size
	stride := 1
	for _, p := range []int{7, 11, 13, 3} {
		if slots%p != 0 && p < slots {
			stride = p
			break
		}
	}
	s := int(salt>>8) % slots
	dst = dst[:0]
	for k := 0; k < count; k++ {
		dst = append(dst, hdrLen+((s+k*stride)%slots)*size)
	}
	return dst
}

// checkWriter is what a writer checks before it writes: the node's
// header must be the model's header, or an earlier committed update to
// this segment was lost or has not been applied (the acquire interlock
// promises it has).
func checkWriter(nodeSeg, shadowSeg []byte) error {
	if !bytes.Equal(nodeSeg[:hdrLen], shadowSeg[:hdrLen]) {
		return fmt.Errorf("header at node has counter %d crc %08x, model has counter %d crc %08x",
			headerCounter(nodeSeg), binary.LittleEndian.Uint32(nodeSeg[8:12]),
			headerCounter(shadowSeg), binary.LittleEndian.Uint32(shadowSeg[8:12]))
	}
	return nil
}

// checkReader is what a reader checks under a shared lock: the payload
// matches its checksum, the counter has not gone back since this client
// last saw the segment, and the whole segment equals the model.
func checkReader(nodeSeg, shadowSeg []byte, lastSeen uint64) error {
	if got, want := crc32.Checksum(nodeSeg[hdrLen:], castagnoli), binary.LittleEndian.Uint32(nodeSeg[8:12]); got != want {
		return fmt.Errorf("payload crc %08x, header says %08x", got, want)
	}
	if c := headerCounter(nodeSeg); c < lastSeen {
		return fmt.Errorf("counter went back from %d to %d", lastSeen, c)
	}
	if !bytes.Equal(nodeSeg, shadowSeg) {
		return fmt.Errorf("segment differs from model (counter %d, model %d)",
			headerCounter(nodeSeg), headerCounter(shadowSeg))
	}
	return nil
}

// diffImages reports the first segment at which an image differs from
// the model.
func (s *shadow) diffImage(img []byte) error {
	if bytes.Equal(img, s.img) {
		return nil
	}
	if len(img) != len(s.img) {
		return fmt.Errorf("image is %d bytes, model %d", len(img), len(s.img))
	}
	for i := 0; i < s.geo.segs; i++ {
		a, b := img[i*s.geo.segLen:(i+1)*s.geo.segLen], s.seg(i)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("segment %d differs from model (counter %d, model %d)",
				i, headerCounter(a), headerCounter(b))
		}
	}
	return nil
}
