package wal

import (
	"bytes"
	"io"
	"testing"
)

// memRef is the model FuzzMemDevice checks the paged MemDevice
// against: the log in one flat slice.
type memRef struct {
	buf    []byte
	synced int
}

// allocated returns the bytes the device's pages hold, used or not.
func (d *MemDevice) allocated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, pg := range d.pages {
		total += cap(pg)
	}
	return total
}

// FuzzMemDevice drives a small-page MemDevice and the flat reference
// through the same random operation stream and requires every
// observable result to agree: offsets, sizes, errors, ReadAt and Open
// bytes, and the whole contents on demand and at the end. The pages are
// a few bytes long, so appends, trims and reads cross page boundaries
// constantly.
func FuzzMemDevice(f *testing.F) {
	f.Add(uint8(3), []byte{0, 9, 1, 0, 20, 5, 3, 7, 6, 2, 0, 40, 4, 1, 8, 3})
	f.Add(uint8(1), []byte{0, 255, 4, 100, 1, 0, 5, 3, 2, 0, 7, 9})
	f.Add(uint8(8), []byte{0, 17, 0, 17, 4, 16, 3, 2, 6, 0, 7, 1, 0, 3, 5, 0})
	f.Fuzz(func(t *testing.T, ps uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		d := newPagedMemDevice(int(ps%16) + 1)
		var ref memRef
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := int(ops[0])
			ops = ops[1:]
			return v
		}
		// arg spans a little past both ends of the log, so out-of-range
		// and negative arguments are exercised too.
		arg := func() int { return next() - 8 }
		seq := byte(0)
		for len(ops) > 0 {
			switch next() % 10 {
			case 0: // Append
				p := make([]byte, next()%40)
				for i := range p {
					seq++
					p[i] = seq
				}
				off, err := d.Append(p)
				if err != nil || off != int64(len(ref.buf)) {
					t.Fatalf("Append = %d, %v; want %d", off, err, len(ref.buf))
				}
				ref.buf = append(ref.buf, p...)
			case 1: // Sync
				d.Sync()
				ref.synced = len(ref.buf)
			case 2: // CrashUnsynced
				d.CrashUnsynced()
				ref.buf = ref.buf[:ref.synced]
			case 3: // Truncate
				size := arg()
				err := d.Truncate(int64(size))
				if ok := size >= 0 && size <= len(ref.buf); ok != (err == nil) {
					t.Fatalf("Truncate(%d) of %d bytes: %v", size, len(ref.buf), err)
				} else if ok {
					ref.buf = ref.buf[:size]
					ref.synced = min(ref.synced, size)
				}
			case 4: // TrimHead
				upTo := arg()
				err := d.TrimHead(int64(upTo))
				if ok := upTo >= 0 && upTo <= len(ref.buf); ok != (err == nil) {
					t.Fatalf("TrimHead(%d) of %d bytes: %v", upTo, len(ref.buf), err)
				} else if ok {
					ref.buf = append([]byte(nil), ref.buf[upTo:]...)
					ref.synced = max(ref.synced-upTo, 0)
				}
			case 5: // Reset
				d.Reset()
				ref.buf, ref.synced = nil, 0
			case 6: // ReadAt
				off, p := arg(), make([]byte, next()%24)
				n, err := d.ReadAt(p, int64(off))
				if off < 0 || off > len(ref.buf) {
					if err == nil || err == io.EOF {
						t.Fatalf("ReadAt(%d) of %d bytes: %v, want a range error", off, len(ref.buf), err)
					}
					break
				}
				want := ref.buf[off:min(off+len(p), len(ref.buf))]
				if !bytes.Equal(p[:n], want) || (n < len(p)) != (err == io.EOF) || (err != nil && err != io.EOF) {
					t.Fatalf("ReadAt(%d, %d) = %q, %v; want %q", off, len(p), p[:n], err, want)
				}
			case 7: // Open
				from := arg()
				rc, err := d.Open(int64(from))
				if from < 0 || from > len(ref.buf) {
					if err == nil {
						t.Fatalf("Open(%d) of %d bytes succeeded", from, len(ref.buf))
					}
					break
				}
				if err != nil {
					t.Fatalf("Open(%d): %v", from, err)
				}
				got, _ := io.ReadAll(rc)
				if !bytes.Equal(got, ref.buf[from:]) {
					t.Fatalf("Open(%d) = %q, want %q", from, got, ref.buf[from:])
				}
			case 8: // Size
				if sz, _ := d.Size(); sz != int64(len(ref.buf)) {
					t.Fatalf("Size = %d, want %d", sz, len(ref.buf))
				}
			case 9: // Bytes
				if got := d.Bytes(); !bytes.Equal(got, ref.buf) {
					t.Fatalf("contents %q, want %q", got, ref.buf)
				}
			}
			if a := d.allocated(); a > len(ref.buf)+d.head+d.pageSize {
				t.Fatalf("%d bytes allocated for %d-byte log (head %d, page %d)", a, len(ref.buf), d.head, d.pageSize)
			}
		}
		if got := d.Bytes(); !bytes.Equal(got, ref.buf) {
			t.Fatalf("final contents %q, want %q", got, ref.buf)
		}
	})
}

// TestMemDeviceAllocationBound pins what the pages buy: a MemDevice
// holding N bytes keeps at most N + one page allocated, however it got
// there, and a head trim frees the pages below the cut instead of
// copying the tail.
func TestMemDeviceAllocationBound(t *testing.T) {
	const ps = 64
	d := newPagedMemDevice(ps)
	chunk := bytes.Repeat([]byte{7}, 23)
	for i := 0; i < 200; i++ {
		d.Append(chunk)
		size, _ := d.Size()
		if a := d.allocated(); int64(a) > size+ps {
			t.Fatalf("after %d appends: %d bytes allocated for %d", i+1, a, size)
		}
	}
	d.Sync()
	d.Append(bytes.Repeat([]byte{8}, 5*ps))
	d.CrashUnsynced()
	if size, _ := d.Size(); int64(d.allocated()) > size+ps {
		t.Fatalf("after a crash: %d bytes allocated for %d", d.allocated(), size)
	}
	if err := d.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if a := d.allocated(); a > 100+ps {
		t.Fatalf("after truncate: %d bytes allocated for 100", a)
	}
	// A trim to a page boundary leaves no dead head bytes behind.
	d.Append(bytes.Repeat([]byte{9}, 10*ps))
	size, _ := d.Size()
	if err := d.TrimHead(8 * ps); err != nil {
		t.Fatal(err)
	}
	if a := d.allocated(); int64(a) > size-8*ps+ps {
		t.Fatalf("after trim: %d bytes allocated for %d", a, size-8*ps)
	}

	// The production page: a short log does not hold a whole page.
	small := NewMemDevice()
	small.Append([]byte("short"))
	if a := small.allocated(); a > memFirstPage {
		t.Fatalf("a 5-byte log holds %d bytes", a)
	}
}

// TestMemDeviceRejectsNegativeOffsets: every offset and size a Device
// call takes comes from a caller (a store request off the network,
// among others), so a negative one is an error, never a panic.
func TestMemDeviceRejectsNegativeOffsets(t *testing.T) {
	d := NewMemDevice()
	d.Append([]byte("abc"))
	if err := d.Truncate(-1); err == nil {
		t.Fatal("Truncate(-1) succeeded")
	}
	if err := d.TrimHead(-1); err == nil {
		t.Fatal("TrimHead(-1) succeeded")
	}
	if _, err := d.Open(-1); err == nil {
		t.Fatal("Open(-1) succeeded")
	}
	if _, err := d.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("ReadAt(-1) succeeded")
	}
	if got := string(d.Bytes()); got != "abc" {
		t.Fatalf("contents after rejected calls: %q", got)
	}
}
