package dht

import (
	"math/rand"
	"net/netip"
	"sort"
	"testing"
)

// closestBySort is the reference Closest: copy the whole table, sort
// it by XOR distance to target (ID tiebreak), keep the first n.
func closestBySort(t *Table, target ID, n int) []Contact {
	var all []Contact
	for i := range t.buckets {
		all = append(all, t.buckets[i]...)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := all[i].ID.XOR(target), all[j].ID.XOR(target)
		if di != dj {
			return di.Less(dj)
		}
		return string(all[i].ID[:]) < string(all[j].ID[:])
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

func randomID(rng *rand.Rand) ID {
	var id ID
	rng.Read(id[:])
	return id
}

func testAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), DefaultPort)
}

func TestClosestMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randByte := func() byte { return byte(rng.Intn(256)) }
	for trial := 0; trial < 1500; trial++ {
		self := randomID(rng)
		tab := NewTable(self, 1+rng.Intn(20))
		var ids []ID
		for i, seen := 0, rng.Intn(401); i < seen; i++ {
			id := randomID(rng)
			if rng.Intn(3) == 0 {
				// Populate the low buckets random IDs almost never reach.
				id = RandomIDInBucket(self, rng.Intn(24), randByte)
			}
			ids = append(ids, id)
			tab.Seen(Contact{ID: id, Addr: testAddr(i)})
		}
		targets := []ID{
			self,
			RandomIDInBucket(self, rng.Intn(IDBits), randByte),
			randomID(rng),
		}
		if len(ids) > 0 {
			targets = append(targets, ids[rng.Intn(len(ids))])
		}
		for ti, target := range targets {
			size := tab.Len()
			for _, n := range []int{0, 1, tab.k, tab.k + 1, rng.Intn(size + 3), size, size + 1} {
				got, want := tab.Closest(target, n), closestBySort(tab, target, n)
				if len(got) != len(want) {
					t.Fatalf("trial %d target %d n=%d: got %d contacts, want %d", trial, ti, n, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Fatalf("trial %d target %d n=%d: position %d is %x, want %x", trial, ti, n, i, got[i].ID[:], want[i].ID[:])
					}
				}
			}
		}
	}
}

// BenchmarkClosest answers lookups from a routing table filled the way
// a 1000-node overlay fills it: K = 8, every other node offered once,
// n = K+1 (a FIND_NODE answer), random targets.
func BenchmarkClosest(b *testing.B) {
	const k, fleet = 8, 1000
	rng := rand.New(rand.NewSource(1))
	tab := NewTable(NodeID(testAddr(0)), k)
	for i := 1; i < fleet; i++ {
		tab.Seen(Contact{ID: NodeID(testAddr(i)), Addr: testAddr(i)})
	}
	targets := make([]ID, 1024)
	for i := range targets {
		targets[i] = randomID(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tab.Closest(targets[i%len(targets)], k+1); len(got) != k+1 {
			b.Fatalf("got %d contacts", len(got))
		}
	}
	b.ReportMetric(float64(tab.Len()), "contacts")
}
