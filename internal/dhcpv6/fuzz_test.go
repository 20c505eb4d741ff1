package dhcpv6

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzDecodeRelayForw feeds hostile datagrams to the RELAY-FORW
// decoder that every Dnsmasq Dev runs on multicast input: it must
// never panic, and whatever it accepts must re-encode to the same
// bytes.
func FuzzDecodeRelayForw(f *testing.F) {
	link, peer := netip.MustParseAddr("fe80::1"), netip.MustParseAddr("fe80::2")
	f.Add(NewRelayForw(link, peer, []byte{0x41, 0x00, 0xff}).Encode())
	f.Add(NewRelayForw(netip.Addr{}, netip.Addr{}, nil).Encode())
	multi := NewRelayForw(link, peer, []byte("relay"))
	multi.HopCount = 3
	multi.Options = append(multi.Options, Option{Code: OptClientID, Data: []byte{1, 2}})
	f.Add(multi.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRelayForw(data)
		if err != nil {
			return
		}
		if enc := r.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, enc)
		}
	})
}
