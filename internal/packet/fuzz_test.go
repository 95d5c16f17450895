package packet

// FuzzDecode feeds arbitrary bytes to Decode, the first parser every
// captured frame meets. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s ./internal/packet
//
// Crashers found this way are kept under testdata/fuzz as regression
// seeds, which plain `go test` replays.

import (
	"bytes"
	"testing"
)

func FuzzDecode(f *testing.F) {
	syn := buildSYN()
	raw, err := syn.Encode(SerializeOptions{})
	if err != nil {
		f.Fatal(err)
	}
	psh := NewBuilder(clientIP, serverIP, 40000, 443).Seq(5).Flags(ACK | PSH).Payload([]byte("hello")).Build()
	rawPSH, err := psh.Encode(SerializeOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(rawPSH)
	f.Add(raw[:19])
	f.Add(raw[:21])
	badIHL := append([]byte(nil), raw...)
	badIHL[0] = 4<<4 | 3
	f.Add(badIHL)
	udp := append([]byte(nil), raw...)
	udp[9] = 17
	f.Add(udp)
	badOpts := append([]byte(nil), raw...)
	badOpts[20+21] = 40 // the MSS option claims 40 bytes
	f.Add(badOpts)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		ipLen, tcpLen := p.IP.HeaderLen(), p.TCP.HeaderLen()
		if ipLen < 20 || tcpLen < 20 || ipLen+tcpLen+len(p.Payload) != len(data) {
			t.Fatalf("headers %d+%d and payload %d do not add up to the %d input bytes", ipLen, tcpLen, len(p.Payload), len(data))
		}
		if !bytes.Equal(p.Payload, data[ipLen+tcpLen:]) {
			t.Fatal("payload is not the bytes after the headers")
		}
		if want := max(0, int(p.IP.TotalLen)-ipLen-tcpLen); p.PayloadLen != want {
			t.Fatalf("PayloadLen %d, want %d from TotalLen %d", p.PayloadLen, want, p.IP.TotalLen)
		}
		// Everything Decode keeps is a copy of bytes inside the headers.
		if len(p.IP.Options) != ipLen-20 {
			t.Fatalf("%d IP option bytes in a %d-byte header", len(p.IP.Options), ipLen)
		}
		var optBytes int
		for _, o := range p.TCP.Options {
			optBytes += len(o.Data)
		}
		if optBytes > tcpLen-20 {
			t.Fatalf("%d TCP option data bytes in a %d-byte header", optBytes, tcpLen)
		}
		_ = p.String()
		q := p.Clone()
		enc, err := q.Encode(SerializeOptions{})
		if err != nil {
			return
		}
		r, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if r.IP.SrcIP != p.IP.SrcIP || r.IP.DstIP != p.IP.DstIP || r.IP.TotalLen != p.IP.TotalLen ||
			r.TCP.SrcPort != p.TCP.SrcPort || r.TCP.DstPort != p.TCP.DstPort || r.TCP.Seq != p.TCP.Seq ||
			r.TCP.Ack != p.TCP.Ack || r.TCP.Flags != p.TCP.Flags || !bytes.Equal(r.Payload, p.Payload) {
			t.Fatalf("re-encoded packet decodes differently:\n got %v\nwant %v", r, p)
		}
	})
}
