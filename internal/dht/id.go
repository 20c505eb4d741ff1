// Package dht implements a Kademlia distributed hash table over the
// simulator's UDP sockets: 160-bit XOR-metric IDs, k-buckets with LRU
// ping/evict, iterative FIND_NODE/FIND_VALUE lookups, K-closest STORE
// replication, and periodic bucket refresh. It is the command overlay
// of the P2P botnet family (internal/p2pbot): where Mirai's bots hang
// off one TCP C&C that a single takedown removes, DHT bots hold signed
// command records replicated across the overlay itself.
//
// Determinism contract: a DHT node's entire state is node-local and
// every peer interaction is a datagram over netsim, so the package is
// shard-confinement clean by construction. RPC ids come from a
// per-node counter, lookup shortlists are sorted slices, k-closest
// queries walk the buckets in a fixed XOR-distance order (Table.Closest),
// and the only map lookups are direct-keyed — no map iteration anywhere.
package dht

import (
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"net/netip"
)

const (
	// IDBytes is the identifier width in bytes (160 bits, as in the
	// Kademlia paper and BitTorrent's DHT).
	IDBytes = 20
	// IDBits is the identifier width in bits; also the bucket count.
	IDBits = IDBytes * 8
)

// ID is a 160-bit Kademlia identifier: a point in the XOR metric
// space, naming either a node or a record key.
type ID [IDBytes]byte

// DeriveID hashes arbitrary bytes into the ID space.
func DeriveID(data []byte) ID {
	sum := sha256.Sum256(data)
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// NodeID derives a node's overlay identifier from its UDP endpoint.
// IDs being a pure function of the address keeps the overlay
// deterministic and lets any peer place a known address in its
// routing table without a handshake.
func NodeID(ap netip.AddrPort) ID {
	return DeriveID([]byte(ap.String()))
}

// Key derives a record key from a human-readable name (e.g. the
// botnet's command channel).
func Key(name string) ID {
	return DeriveID([]byte(name))
}

// String renders the ID as hex, abbreviated for logs.
func (id ID) String() string {
	return hex.EncodeToString(id[:4])
}

// XOR computes the Kademlia distance between two IDs.
func (id ID) XOR(o ID) Distance {
	var d Distance
	for i := range id {
		d[i] = id[i] ^ o[i]
	}
	return d
}

// Distance is an XOR metric value, compared lexicographically
// (big-endian), exactly as the Kademlia paper orders the space.
type Distance [IDBytes]byte

// Less reports whether d is strictly closer than o.
func (d Distance) Less(o Distance) bool {
	for i := range d {
		if d[i] != o[i] {
			return d[i] < o[i]
		}
	}
	return false
}

// bit reports bit i of d, counted from the least significant end (the
// numbering BucketIndex uses).
func (d Distance) bit(i int) bool {
	p := IDBits - 1 - i
	return d[p/8]&(0x80>>(p%8)) != 0
}

// IsZero reports whether the distance is zero (identical IDs).
func (d Distance) IsZero() bool {
	for _, b := range d {
		if b != 0 {
			return false
		}
	}
	return true
}

// BucketIndex maps the distance between two IDs to a k-bucket index in
// [0, IDBits): the position of the highest set bit of their XOR.
// Bucket IDBits-1 holds the far half of the space; bucket 0 holds the
// single ID differing only in the last bit. Returns -1 for identical
// IDs, which never occupy a bucket.
func BucketIndex(a, b ID) int {
	d := a.XOR(b)
	for i, byt := range d {
		if byt != 0 {
			return IDBits - 1 - (i*8 + bits.LeadingZeros8(byt))
		}
	}
	return -1
}

// RandomIDInBucket builds an ID whose distance from self falls in
// bucket idx, using random bits from rnd for the low-order positions —
// the refresh target generator. rnd must be the caller's own
// deterministic stream.
func RandomIDInBucket(self ID, idx int, randByte func() byte) ID {
	id := self
	bit := IDBits - 1 - idx // position of the differing bit, from the top
	// Flip the bucket's defining bit.
	id[bit/8] ^= 0x80 >> (bit % 8)
	// Randomize everything below it.
	for p := bit + 1; p < IDBits; p++ {
		if p%8 == 0 && IDBits-p >= 8 {
			// Whole remaining bytes: fill at byte granularity.
			id[p/8] = randByte()
			p += 7
			continue
		}
		mask := byte(0x80 >> (p % 8))
		if randByte()&1 == 1 {
			id[p/8] |= mask
		} else {
			id[p/8] &^= mask
		}
	}
	return id
}
