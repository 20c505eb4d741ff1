package dht

// Table is the Kademlia routing table: IDBits k-buckets of contacts,
// bucket i holding peers whose distance from self has its highest set
// bit at position i. Each bucket is LRU-ordered — index 0 is the
// least-recently-seen contact, the tail the freshest — and holds at
// most k entries. The table itself never pings anyone: when a bucket
// is full, Seen reports the eviction candidate and the node layer
// decides by pinging it (Kademlia's "old contacts are good contacts"
// policy: a responsive oldie stays, the newcomer is dropped).
type Table struct {
	self    ID
	k       int
	buckets [IDBits][]Contact
	size    int
	// scratch is Closest's per-bucket sort buffer, reused across calls.
	scratch []rankedContact
}

// NewTable builds the table for owner self with bucket capacity k.
func NewTable(self ID, k int) *Table {
	return &Table{self: self, k: k}
}

// Len reports the total number of contacts.
func (t *Table) Len() int { return t.size }

// SeenResult describes the outcome of observing a contact.
type SeenResult int

const (
	// SeenAdded: the contact entered (or refreshed) its bucket.
	SeenAdded SeenResult = iota
	// SeenFull: the bucket is full; the caller should ping the
	// eviction candidate and call Evict or ignore the newcomer.
	SeenFull
	// SeenSelf: the contact is the table owner; never stored.
	SeenSelf
)

// Seen records traffic from c. If its bucket is full and c is not
// already present, it reports SeenFull along with the
// least-recently-seen occupant as the eviction candidate.
func (t *Table) Seen(c Contact) (SeenResult, Contact) {
	idx := BucketIndex(t.self, c.ID)
	if idx < 0 {
		return SeenSelf, Contact{}
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			// Move to tail: freshest position.
			moved := b[i]
			copy(b[i:], b[i+1:])
			b[len(b)-1] = moved
			return SeenAdded, Contact{}
		}
	}
	if len(b) < t.k {
		t.buckets[idx] = append(b, c)
		t.size++
		return SeenAdded, Contact{}
	}
	return SeenFull, b[0]
}

// Evict removes id (the losing eviction candidate) and inserts
// replacement at the fresh end of the same bucket.
func (t *Table) Evict(id ID, replacement Contact) {
	idx := BucketIndex(t.self, id)
	if idx < 0 || idx != BucketIndex(t.self, replacement.ID) {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = replacement
			return
		}
	}
}

// Remove drops a dead contact.
func (t *Table) Remove(id ID) {
	idx := BucketIndex(t.self, id)
	if idx < 0 {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			t.size--
			return
		}
	}
}

// Closest returns up to n contacts sorted by XOR distance to target.
//
// It never sorts the whole table. With D = self XOR target and b =
// BucketIndex(self, target), a contact c in bucket i sits at distance
// (c XOR self) XOR D, so whole buckets order by distance: bucket b
// (distances below 2^b); then buckets i < b whose bit i of D is set,
// in descending i; then buckets i < b whose bit i of D is clear, in
// ascending i; then buckets i > b in ascending i. For i < b the
// distance matches D above bit i and flips D's bit i, so a set bit
// puts the whole bucket below every lower bucket and a clear bit above
// them. Only a bucket's own (at most k) entries are sorted, and the
// walk stops at n. Distinct IDs have distinct distances, so the result
// equals a full sort's whatever the insertion history.
func (t *Table) Closest(target ID, n int) []Contact {
	n = max(0, min(n, t.size))
	out := make([]Contact, 0, n)
	// b is -1 when target == self; then only the last walk runs, over
	// every bucket in ascending order.
	b := BucketIndex(t.self, target)
	if b >= 0 {
		d := t.self.XOR(target)
		out = t.appendBucket(out, b, target, n)
		for i := b - 1; i >= 0 && len(out) < n; i-- {
			if d.bit(i) {
				out = t.appendBucket(out, i, target, n)
			}
		}
		for i := 0; i < b && len(out) < n; i++ {
			if !d.bit(i) {
				out = t.appendBucket(out, i, target, n)
			}
		}
	}
	for i := b + 1; i < IDBits && len(out) < n; i++ {
		out = t.appendBucket(out, i, target, n)
	}
	return out
}

// rankedContact pairs a contact with its distance to a lookup target.
type rankedContact struct {
	d Distance
	c Contact
}

// appendBucket appends bucket idx's contacts to out in distance order
// to target, stopping once out holds n.
func (t *Table) appendBucket(out []Contact, idx int, target ID, n int) []Contact {
	bucket := t.buckets[idx]
	if len(bucket) == 0 {
		return out
	}
	// Insertion sort into the reused scratch buffer: a bucket holds at
	// most k entries.
	rs := t.scratch[:0]
	for _, c := range bucket {
		r := rankedContact{d: c.ID.XOR(target), c: c}
		j := len(rs)
		rs = append(rs, r)
		for ; j > 0 && r.d.Less(rs[j-1].d); j-- {
			rs[j] = rs[j-1]
		}
		rs[j] = r
	}
	t.scratch = rs
	for _, r := range rs {
		if len(out) == n {
			break
		}
		out = append(out, r.c)
	}
	return out
}

// BucketLen reports the occupancy of bucket idx (refresh targeting).
func (t *Table) BucketLen(idx int) int { return len(t.buckets[idx]) }
