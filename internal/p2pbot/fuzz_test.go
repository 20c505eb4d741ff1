package p2pbot

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzDecodeRecord feeds hostile bytes to the record decoder: it must
// never panic, and it may accept only what the botmaster's key signed,
// byte for byte.
func FuzzDecodeRecord(f *testing.F) {
	pub, priv := DeriveKey([32]byte{1})
	for _, rec := range []*Record{
		{Seq: 3, Method: "udpplain", Target: netip.MustParseAddrPort("10.0.0.9:80"), Until: 600},
		{Seq: 4, Method: "syn", Target: netip.MustParseAddrPort("[2001:db8::9]:443"), Until: 900},
	} {
		f.Add(rec.Encode(priv))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(pub, data)
		if err != nil {
			return
		}
		if enc := r.Encode(priv); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes as %x", data, enc)
		}
	})
}
