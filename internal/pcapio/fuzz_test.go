package pcapio

// FuzzPCAPReader feeds arbitrary bytes to the capture reader. Run it with
//
//	go test -run '^$' -fuzz '^FuzzPCAPReader$' -fuzztime 30s ./internal/pcapio
//
// Crashers found this way are kept under testdata/fuzz as regression
// seeds, which plain `go test` replays.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzRecords bounds the records read per input.
const fuzzRecords = 64

func FuzzPCAPReader(f *testing.F) {
	for _, link := range []uint32{LinkTypeRaw, LinkTypeEthernet} {
		var buf bytes.Buffer
		w := NewWriter(&buf, link)
		for _, p := range samplePackets(f) {
			if err := w.WritePacket(p); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A big-endian nanosecond header and an oversized record header.
	hdr := make([]byte, 24+16)
	binary.BigEndian.PutUint32(hdr[0:4], magicNanos)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	binary.BigEndian.PutUint32(hdr[32:36], maxRecordLen+1)
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < fuzzRecords; i++ {
			rec, err := r.Next()
			if err != nil {
				return
			}
			// A record never holds more than the input, or than the
			// sanity bound, and its wire length covers what was captured.
			if cap(rec.Data) > len(data) || cap(rec.Data) > maxRecordLen {
				t.Fatalf("record %d holds %d bytes from a %d-byte input", i, cap(rec.Data), len(data))
			}
			if rec.OrigLen < len(rec.Data) {
				t.Fatalf("record %d: OrigLen %d below its %d captured bytes", i, rec.OrigLen, len(rec.Data))
			}
		}
	})
}
