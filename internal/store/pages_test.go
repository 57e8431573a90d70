package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lbc/internal/rvm"
)

// TestStorePagesRoundTrip: a vectored page write lands in place on the
// server (growing the image, later entries winning), a single page is a
// batch of one, and a mirrored primary forwards both to its backup.
func TestStorePagesRoundTrip(t *testing.T) {
	pair, err := NewReplicaPair("127.0.0.1:0", "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	cli, err := Dial(pair.Primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.StoreRegion(7, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	err = cli.StorePages(7, []rvm.PageWrite{
		{Off: 2, Data: []byte("ab")},
		{Off: 12, Data: []byte("tail")}, // grows the image, leaving a zero gap
		{Off: 3, Data: []byte("Z")},     // overlaps the first entry: later wins
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.StorePages(7, []rvm.PageWrite{{Off: 0, Data: []byte("#")}}); err != nil {
		t.Fatal(err)
	}
	want := []byte("#1aZ456789\x00\x00tail")
	for name, srv := range map[string]*Server{"primary": pair.Primary, "backup": pair.Backup} {
		img, err := srv.Data().LoadRegion(7)
		if err != nil || !bytes.Equal(img, want) {
			t.Errorf("%s image = %q, %v; want %q", name, img, err, want)
		}
	}
	st := pair.Primary.Stats()
	if st.Counter("op_store_pages") != 2 || st.Counter("store_pages_bytes") != 8 {
		t.Errorf("op_store_pages = %d, store_pages_bytes = %d; want 2 and 8",
			st.Counter("op_store_pages"), st.Counter("store_pages_bytes"))
	}
}

// pagesBody hand-assembles an opStorePages body from raw entry fields,
// so a test can lie about lengths.
func pagesBody(region uint32, entries ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, region)
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

func pagesEntry(off uint64, n uint32, data []byte) []byte {
	e := binary.LittleEndian.AppendUint64(nil, off)
	e = binary.LittleEndian.AppendUint32(e, n)
	return append(e, data...)
}

// TestStorePagesRejectsHostileRequests: the server refuses every
// malformed shape of the vectored write before touching the store — in
// particular an offset may never size an allocation.
func TestStorePagesRejectsHostileRequests(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := map[string][]byte{
		"no region id":              {1, 2, 3},
		"entry header truncated":    pagesBody(1, pagesEntry(0, 4, []byte("data"))[:7]),
		"entry longer than request": pagesBody(1, pagesEntry(0, 9, []byte("short"))),
		"lengths under the body":    pagesBody(1, pagesEntry(0, 2, []byte("data"))),
		"offset plus length wraps":  pagesBody(1, pagesEntry(math.MaxUint64-1, 4, []byte("data"))),
		"negative as int64":         pagesBody(1, pagesEntry(1<<63, 4, []byte("data"))),
		"grows past the image cap":  pagesBody(1, pagesEntry(maxImage-1, 4, []byte("data"))),
		"offset at the cap":         pagesBody(1, pagesEntry(maxImage+1, 0, nil)),
		"second entry bad":          pagesBody(1, pagesEntry(0, 4, []byte("good")), pagesEntry(maxImage, 1, []byte("x"))),
	}
	for name, body := range cases {
		if _, err := srv.handle(opStorePages, body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if ids, _ := srv.Data().Regions(); len(ids) != 0 {
		t.Errorf("rejected requests left regions %v behind", ids)
	}
	// Control: the same framing with honest fields is accepted.
	if _, err := srv.handle(opStorePages, pagesBody(1, pagesEntry(0, 4, []byte("data")))); err != nil {
		t.Errorf("well-formed request: %v", err)
	}
}

// FuzzStorePagesRequest: whatever bytes arrive as an opStorePages body,
// decoding never panics, and a body it accepts is exactly its entries —
// every one inside the image cap — so re-encoding reproduces it.
func FuzzStorePagesRequest(f *testing.F) {
	f.Add(encodeStorePages(1, []rvm.PageWrite{{Off: 0, Data: []byte("page")}}))
	f.Add(encodeStorePages(9, []rvm.PageWrite{{Off: 8192, Data: make([]byte, 64)}, {Off: 0, Data: nil}}))
	f.Add(pagesBody(1, pagesEntry(math.MaxUint64, 1, []byte("x"))))
	f.Add(pagesBody(1, pagesEntry(0, math.MaxUint32, nil)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		id, pages, err := decodeStorePages(body)
		if err != nil {
			return
		}
		for _, p := range pages {
			if p.Off < 0 || p.Off+int64(len(p.Data)) > maxImage {
				t.Fatalf("accepted write [%d,+%d) outside the image cap", p.Off, len(p.Data))
			}
		}
		if again := encodeStorePages(id, pages); !bytes.Equal(again, body) {
			t.Fatalf("accepted body does not re-encode to itself:\n got %x\nwant %x", again, body)
		}
	})
}
