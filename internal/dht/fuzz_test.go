package dht

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds hostile datagrams to the overlay decoder: it must
// never panic, and whatever it accepts must survive an Encode/Decode
// round trip unchanged.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(m.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}
