package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"clap/internal/packet"
)

func samplePackets(t testing.TB) []*packet.Packet {
	t.Helper()
	c := [4]byte{10, 0, 0, 1}
	s := [4]byte{192, 0, 2, 1}
	ts := time.Unix(1600000000, 123456000)
	return []*packet.Packet{
		packet.NewBuilder(c, s, 1234, 80).Seq(100).Flags(packet.SYN).MSS(1460).Time(ts).Build(),
		packet.NewBuilder(s, c, 80, 1234).Seq(500).Ack(101).Flags(packet.SYN | packet.ACK).MSS(1460).Time(ts.Add(time.Millisecond)).Build(),
		packet.NewBuilder(c, s, 1234, 80).Seq(101).Ack(501).Flags(packet.ACK).PayloadLen(300).Time(ts.Add(2 * time.Millisecond)).Build(),
	}
}

func roundTrip(t *testing.T, linkType uint32) {
	t.Helper()
	pkts := samplePackets(t)
	var buf bytes.Buffer
	w := NewWriter(&buf, linkType)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, skipped, err := ReadPackets(&buf)
	if err != nil {
		t.Fatalf("ReadPackets: %v", err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range got {
		if got[i].TCP.Seq != pkts[i].TCP.Seq || got[i].TCP.Flags != pkts[i].TCP.Flags {
			t.Errorf("packet %d: got %v want %v", i, got[i], pkts[i])
		}
		if got[i].PayloadLen != pkts[i].PayloadLen {
			t.Errorf("packet %d: PayloadLen = %d, want %d", i, got[i].PayloadLen, pkts[i].PayloadLen)
		}
		if !got[i].Timestamp.Equal(pkts[i].Timestamp.Truncate(time.Microsecond)) {
			t.Errorf("packet %d: Timestamp = %v, want %v", i, got[i].Timestamp, pkts[i].Timestamp)
		}
		if !got[i].TCPChecksumValid() {
			t.Errorf("packet %d: checksum invalid after round trip", i)
		}
	}
}

func TestRoundTripRaw(t *testing.T)      { roundTrip(t, LinkTypeRaw) }
func TestRoundTripEthernet(t *testing.T) { roundTrip(t, LinkTypeEthernet) }

func TestReaderRejectsBadMagic(t *testing.T) {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint32(buf, 0xdeadbeef)
	if _, err := NewReader(bytes.NewReader(buf)); err == nil {
		t.Error("NewReader should reject unknown magic")
	}
}

func TestReaderRejectsUnknownLinkType(t *testing.T) {
	buf := make([]byte, 24)
	le := binary.LittleEndian
	le.PutUint32(buf[0:4], magicMicros)
	le.PutUint32(buf[20:24], 228) // LINKTYPE_IPV4? not supported here
	if _, err := NewReader(bytes.NewReader(buf)); err == nil {
		t.Error("NewReader should reject unsupported link type")
	}
}

func TestReaderBigEndianAndNanos(t *testing.T) {
	// Hand-build a big-endian nanosecond pcap with a single raw IP record.
	p := samplePackets(t)[0]
	rawIP, _ := p.Encode(packet.SerializeOptions{})
	var buf bytes.Buffer
	bePut := binary.BigEndian
	hdr := make([]byte, 24)
	bePut.PutUint32(hdr[0:4], magicNanos)
	bePut.PutUint32(hdr[16:20], 65535)
	bePut.PutUint32(hdr[20:24], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, 16)
	bePut.PutUint32(rec[0:4], 1600000000)
	bePut.PutUint32(rec[4:8], 987654321)
	bePut.PutUint32(rec[8:12], uint32(len(rawIP)))
	bePut.PutUint32(rec[12:16], uint32(len(rawIP)))
	buf.Write(rec)
	buf.Write(rawIP)

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	want := time.Unix(1600000000, 987654321)
	if !got.Timestamp.Equal(want) {
		t.Errorf("Timestamp = %v, want %v", got.Timestamp, want)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("second Next err = %v, want io.EOF", err)
	}
}

func TestReadPacketsSkipsNonTCP(t *testing.T) {
	p := samplePackets(t)[0]
	rawIP, _ := p.Encode(packet.SerializeOptions{})
	udp := append([]byte(nil), rawIP...)
	udp[9] = 17 // protocol = UDP
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	if err := w.WriteRaw(p.Timestamp, udp, len(udp)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRaw(p.Timestamp, rawIP, len(rawIP)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pkts, skipped, err := ReadPackets(&buf)
	if err != nil {
		t.Fatalf("ReadPackets: %v", err)
	}
	if len(pkts) != 1 || skipped != 1 {
		t.Errorf("got %d packets, %d skipped; want 1, 1", len(pkts), skipped)
	}
}

func TestEthernetNonIPFrameSkipped(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	p := samplePackets(t)[0]
	if err := w.WritePacket(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite the EtherType of the first (only) frame to ARP.
	binary.BigEndian.PutUint16(raw[24+16+12:], 0x0806)
	pkts, skipped, err := ReadPackets(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadPackets: %v", err)
	}
	if len(pkts) != 0 || skipped != 1 {
		t.Errorf("got %d packets, %d skipped; want 0, 1", len(pkts), skipped)
	}
}

func TestEmptyFileJustHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pkts, skipped, err := ReadPackets(&buf)
	if err != nil {
		t.Fatalf("ReadPackets: %v", err)
	}
	if len(pkts) != 0 || skipped != 0 {
		t.Errorf("got %d packets %d skipped from empty capture", len(pkts), skipped)
	}
}

func TestOrigLenPreservedForStrippedPayload(t *testing.T) {
	p := samplePackets(t)[2] // has PayloadLen 300, stored payload stripped
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRaw)
	if err := w.WritePacket(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.OrigLen != int(p.IP.TotalLen) {
		t.Errorf("OrigLen = %d, want %d", rec.OrigLen, p.IP.TotalLen)
	}
	if len(rec.Data) >= rec.OrigLen {
		t.Errorf("capture should be shorter than original for stripped payload: cap=%d orig=%d",
			len(rec.Data), rec.OrigLen)
	}
}

// A crafted record header in a snaplen-0 capture must be rejected before
// the body allocation, not after attempting a multi-GiB make. Pre-fix,
// the sanity bound only applied when snapLen > 0.
func TestReaderOversizeRecordRejected(t *testing.T) {
	craft := func(snapLen, capLen uint32) []byte {
		le := binary.LittleEndian
		buf := make([]byte, 24+16)
		le.PutUint32(buf[0:4], magicMicros)
		le.PutUint32(buf[16:20], snapLen)
		le.PutUint32(buf[20:24], LinkTypeRaw)
		le.PutUint32(buf[32:36], capLen) // record capLen
		le.PutUint32(buf[36:40], capLen)
		return buf
	}

	for _, tc := range []struct {
		name    string
		snapLen uint32
		capLen  uint32
	}{
		{"snaplen zero", 0, 1 << 30},
		{"caplen within declared snaplen", 1 << 31, 2 << 20},
		{"caplen just above bound", 262144, maxRecordLen + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(craft(tc.snapLen, tc.capLen)))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			if _, err := r.Next(); !errors.Is(err, ErrOversizeRecord) {
				t.Fatalf("Next() err = %v, want ErrOversizeRecord", err)
			}
		})
	}

	// The bound must not reject legitimate oversized-vs-snaplen records
	// below it (writers lie about snaplen; tolerated since the seed).
	hdr := craft(64, 0)
	le := binary.LittleEndian
	le.PutUint32(hdr[32:36], 100)
	le.PutUint32(hdr[36:40], 100)
	body := append(hdr, make([]byte, 100)...)
	r, err := NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("record above snaplen but below bound rejected: %v", err)
	}
}

// An Ethernet record claiming an original wire length shorter than the
// 14-byte Ethernet header must not produce a negative OrigLen.
func TestEthernetOrigLenUnderflowClamped(t *testing.T) {
	p := samplePackets(t)[0]
	rawIP, _ := p.Encode(packet.SerializeOptions{})
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	if err := w.WritePacket(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite the record's origLen to 10 < etherHdrLen.
	binary.LittleEndian.PutUint32(raw[24+12:24+16], 10)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if rec.OrigLen < 0 {
		t.Fatalf("OrigLen = %d, underflowed", rec.OrigLen)
	}
	if rec.OrigLen != len(rec.Data) {
		t.Errorf("OrigLen = %d, want clamp to %d captured bytes", rec.OrigLen, len(rec.Data))
	}
	if len(rec.Data) != len(rawIP) {
		t.Errorf("Data = %d bytes, want %d", len(rec.Data), len(rawIP))
	}
}
