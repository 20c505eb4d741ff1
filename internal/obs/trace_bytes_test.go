package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ddosim/internal/sim"
)

// The digests below pin the exported bytes of tracers large enough to
// span several storage chunks. They were recorded from the original
// flat-slice event log, so any change to how events are stored must
// reproduce them unedited.
const (
	bigJSONLSHA    = "8aeadb9b5883593d62358c77b92e5d65b3525be58855bd3fa46e1f384812260b"
	bigChromeSHA   = "17e0448381ec16e0d93ceebad138124ce243239be887b87dad228ca9cd7dfd97"
	capJSONLSHA    = "657084bbe84dbb4f350a7de8fa49a69b3b78b7a09e905d2667d01c3704cfe0cd"
	capChromeSHA   = "2dc5e5f87c1fa6e77b04f6b6227461a12d7fb12a91301d4ccc95a62358dd1d7a"
	mergeJSONLSHA  = "5e30acbb8b39eb7ca6123448b9008b53b6e281d62b3a0f3012fafe45ebb158a5"
	mergeChromeSHA = "acf96374aced22ff0127a7f9448db83ef6e0ed0f13e541c90a23ec9316d6b292"
)

// Event counts of the pinned scenarios: 3.5 chunks of records, and a
// cap two chunks plus 1234 records deep.
const (
	bigEvents = 3*chunkSize + chunkSize/2
	capEvents = 2*chunkSize + 1234
	capEmits  = 12000
)

var (
	byteCats  = []string{CatNet, CatExploit, CatCNC, CatChurn, CatKillChain}
	byteNames = []string{"queue-drop", "exploit-attempt", "attack-command", "device-down", "scan"}
)

// emitMix records n point events starting at base, spaced 250 µs
// apart, with a deterministic mix of categories, names and argument
// lists (none, one, or two KVs), and interleaves spans: one phase span
// opened every 1000 events and closed 600 later, and a retrospective
// RecordSpan every 777.
func emitMix(tr *Tracer, base sim.Time, n int, tag string) {
	open := SpanID(-1)
	for i := 0; i < n; i++ {
		at := base + sim.Time(i)*250*sim.Microsecond
		if i%1000 == 0 {
			open = tr.BeginSpan(at, CatPhase, fmt.Sprintf("%s-phase-%d", tag, i/1000), KV{"i", fmt.Sprint(i)})
		}
		if i%1000 == 600 {
			tr.EndSpan(open, at)
		}
		if i%777 == 776 {
			tr.RecordSpan(at-sim.Millisecond, at, CatKillChain, "stage", KV{"tag", tag}, KV{"n", fmt.Sprint(i)})
		}
		k := i % len(byteCats)
		switch i % 3 {
		case 0:
			tr.Event(at, byteCats[k], byteNames[k])
		case 1:
			tr.Event(at, byteCats[k], byteNames[k], KV{"node", fmt.Sprintf("%s-%d", tag, i%17)})
		default:
			tr.Event(at, byteCats[k], byteNames[k], KV{"node", fmt.Sprintf("%s-%d", tag, i%13)}, KV{"reason", "drop-tail"})
		}
	}
}

// lpStamper hands out (lp, per-LP sequence) stamps round-robin over
// lps, the way a shard's scheduler does for the LPs it hosts.
func lpStamper(lps ...uint32) func() (uint32, uint64) {
	seqs := make(map[uint32]uint64, len(lps))
	i := 0
	return func() (uint32, uint64) {
		lp := lps[i%len(lps)]
		i++
		seqs[lp]++
		return lp, seqs[lp]
	}
}

func digests(t *testing.T, tr *Tracer) (jsonl, chrome string) {
	t.Helper()
	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	ja, cb := sha256.Sum256(a.Bytes()), sha256.Sum256(b.Bytes())
	return hex.EncodeToString(ja[:]), hex.EncodeToString(cb[:])
}

func checkDigests(t *testing.T, tr *Tracer, wantJSONL, wantChrome string) {
	t.Helper()
	j, c := digests(t, tr)
	if j != wantJSONL {
		t.Errorf("JSONL sha256 = %s, want %s", j, wantJSONL)
	}
	if c != wantChrome {
		t.Errorf("Chrome sha256 = %s, want %s", c, wantChrome)
	}
}

func TestTraceBytesAcrossChunks(t *testing.T) {
	tr := NewTracer()
	emitMix(tr, 0, bigEvents, "big")
	if got := len(tr.Events()); got != bigEvents {
		t.Fatalf("events = %d, want %d", got, bigEvents)
	}
	if got := tr.CountEvents(CatNet, "queue-drop"); got != bigEvents/len(byteCats)+1 {
		t.Errorf("CountEvents(net, queue-drop) = %d, want %d", got, bigEvents/len(byteCats)+1)
	}
	checkDigests(t, tr, bigJSONLSHA, bigChromeSHA)
}

func TestTraceBytesCapMidChunk(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxEvents(capEvents)
	emitMix(tr, 0, capEmits, "cap")
	if got := len(tr.Events()); got != capEvents {
		t.Fatalf("events = %d, want %d", got, capEvents)
	}
	if got, want := tr.Dropped(), uint64(capEmits-capEvents); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	checkDigests(t, tr, capJSONLSHA, capChromeSHA)
}

func TestTraceBytesMergeAcrossChunks(t *testing.T) {
	a, b := NewTracer(), NewTracer()
	a.SetStamper(lpStamper(1, 3))
	b.SetStamper(lpStamper(0, 2))
	emitMix(a, 0, 5000, "a")
	emitMix(b, 0, 4600, "b")
	m := MergeTracers(a, b)
	if got := len(m.Events()); got != 9600 {
		t.Fatalf("merged events = %d, want 9600", got)
	}
	if got := len(a.Events()) + len(b.Events()); got != 9600 {
		t.Errorf("inputs changed by merge: %d events", got)
	}
	checkDigests(t, m, mergeJSONLSHA, mergeChromeSHA)
}
