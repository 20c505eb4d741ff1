package netsim

import (
	"net/netip"

	"ddosim/internal/sim"
)

// Sink is the customized NS-3 sink application of §II-C: installed on
// the TServer node, it observes every packet delivered to the node —
// UDP floods, TCP SYN/ACK floods, anything — and counts the received
// volume. The run's 1 s time-series grid samples the cumulative byte
// counter into the per-second log that D_received is computed from.
type Sink struct {
	node *Node
	sock *UDPSocket

	rxPackets uint64
	rxBytes   uint64
	bySource  map[netip.Addr]uint64
	byProto   map[Protocol]uint64

	suspended bool
	missed    uint64
}

// InstallSink attaches a sink application to node. It additionally
// binds the given UDP port so volumetric UDP floods are consumed
// rather than counted as local drops; all accounting happens at the
// node tap, so non-UDP attack traffic is measured too.
func InstallSink(node *Node, port uint16) (*Sink, error) {
	s := &Sink{
		node:     node,
		bySource: make(map[netip.Addr]uint64),
		byProto:  make(map[Protocol]uint64),
	}
	sock, err := node.BindUDP(port, nil)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	node.AddTap(s.onPacket)
	return s, nil
}

func (s *Sink) onPacket(_ sim.Time, pkt *Packet) {
	if s.suspended {
		s.missed++
		return
	}
	// Eq. 2 counts "the total size of the packets received": the full
	// on-wire frame, which is also what Wireshark reports in the
	// hardware validation — and what makes header-only SYN/ACK floods
	// measurable.
	n := pkt.Size()
	s.rxPackets++
	s.rxBytes += uint64(n)
	s.bySource[pkt.Src.Addr()] += uint64(n)
	s.byProto[pkt.Proto] += uint64(n)
}

// Suspend models a crash of the measurement application: the UDP port
// stays bound (floods are still consumed, not refused) but nothing is
// logged until Resume. Fault injection uses this to study measurement
// outages separately from link outages.
func (s *Sink) Suspend() { s.suspended = true }

// Resume restarts logging after a Suspend.
func (s *Sink) Resume() { s.suspended = false }

// Suspended reports whether the sink is currently down.
func (s *Sink) Suspended() bool { return s.suspended }

// MissedPackets reports how many packets arrived while suspended.
func (s *Sink) MissedPackets() uint64 { return s.missed }

// Node reports the node the sink is installed on.
func (s *Sink) Node() *Node { return s.node }

// RxPackets reports how many packets the sink observed.
func (s *Sink) RxPackets() uint64 { return s.rxPackets }

// RxBytes reports the on-wire bytes the sink logged so far.
func (s *Sink) RxBytes() uint64 { return s.rxBytes }

// DistinctSources reports how many distinct source addresses sent
// traffic to the sink — the number of bots observed attacking.
func (s *Sink) DistinctSources() int { return len(s.bySource) }

// BytesFrom reports the application bytes received from one source.
func (s *Sink) BytesFrom(a netip.Addr) uint64 { return s.bySource[a] }

// BytesByProto reports the application bytes received over one
// transport protocol.
func (s *Sink) BytesByProto(p Protocol) uint64 { return s.byProto[p] }

// ReceivedKbps turns the bytes a sink logged in each second of a
// window into the per-second received rate in kbps and the paper's
// D_received (Eq. 2): the kilobits received over the window divided by
// its length in seconds, so quiet seconds pull the average down. An
// empty window averages to zero.
func ReceivedKbps(bytesPerSec []float64) (perSec []float64, avg float64) {
	perSec = make([]float64, len(bytesPerSec))
	var total float64
	for i, b := range bytesPerSec {
		perSec[i] = b * 8 / 1000
		total += b
	}
	if len(bytesPerSec) > 0 {
		avg = total * 8 / 1000 / float64(len(bytesPerSec))
	}
	return perSec, avg
}
