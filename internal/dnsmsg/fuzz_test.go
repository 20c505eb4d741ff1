package dnsmsg

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds hostile datagrams to the decoder, the first code a
// malicious DNS server's reply reaches: it must never panic, and any
// message it accepts must survive Encode and a second Decode
// unchanged, so no name is silently rewritten in transit.
func FuzzDecode(f *testing.F) {
	f.Add(NewQuery(0x1234, "connectivity-check.example.com", TypeA).Encode())
	f.Add(NewResponse(NewQuery(7, "x.io", TypeTXT), TypeTXT, 60, []byte{0x41, 0x00, 0xff}).Encode())
	f.Add(NewQuery(1, "", TypeA).Encode())
	ptr := NewQuery(9, "ptr.example", TypeA).Encode()
	ptr[7] = 1 // ANCOUNT = 1, answer name points at the question's
	f.Add(append(ptr, 0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 5, 0, 4, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc := m.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("accepted %x, but its re-encoding %x fails: %v", data, enc, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("accepted %x as %+v, which re-encodes as %x and decodes as %+v", data, m, enc, again)
		}
	})
}
