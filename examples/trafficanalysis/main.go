// Trafficanalysis: the measurement workflow the paper highlights —
// "DDoSim enables the extraction of network traffic at any layer"
// (§V-A). This example instruments TServer with a packet capture
// during an attack with mixed benign traffic, then prints a
// Wireshark-style summary: top talkers from the run's labeled flow
// records, and a per-second rate table suitable for ML dataset
// generation.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sort"

	"ddosim/ddosim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trafficanalysis:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := ddosim.DefaultConfig(25)
	cfg.AttackDuration = 60
	sim, err := ddosim.New(cfg)
	if err != nil {
		return err
	}

	// Instrumentation: capture the last 50k packets. Per-flow records
	// need no install: every run exports its labeled flow dataset.
	capture := ddosim.StartCapture(sim.TServer(), 50_000)
	if err := ddosim.InstallBenignClients(sim.Star(),
		netip.AddrPortFrom(sim.TServer().Addr4(), 80), 5, "sensor"); err != nil {
		return err
	}

	results, err := sim.Run()
	if err != nil {
		return err
	}

	// Top talkers: keep the flow records addressed to TServer and sum
	// them per source. The flow table counts at the sender, before
	// queueing, so these are offered load — more than TServer received
	// once its downlink saturates — and each carries the ground-truth
	// label the simulation gave the flow.
	type source struct {
		addr  netip.Addr
		label string
	}
	type talker struct {
		source
		packets, bytes uint64
	}
	index := make(map[source]int)
	var talkers []talker
	for _, rec := range sim.Flows().Records() {
		if dst := rec.Dst.Addr(); dst != sim.TServer().Addr4() && dst != sim.TServer().Addr6() {
			continue
		}
		src := source{addr: rec.Src.Addr(), label: rec.Label}
		i, ok := index[src]
		if !ok {
			i = len(talkers)
			index[src] = i
			talkers = append(talkers, talker{source: src})
		}
		talkers[i].packets += rec.Packets
		talkers[i].bytes += rec.Bytes
	}
	sort.SliceStable(talkers, func(i, j int) bool { return talkers[i].bytes > talkers[j].bytes })

	fmt.Println("=== Traffic analysis at TServer ===")
	fmt.Println()
	fmt.Printf("packets observed:  %d (capture kept %d, rolled %d)\n",
		capture.Total(), len(capture.Entries()), capture.Dropped())
	fmt.Printf("flow records:      %d, from %d sources to TServer\n", results.Flows.Flows, len(talkers))
	fmt.Printf("attack window:     %s for %d s, D_received %.1f kbps\n",
		results.AttackIssuedAt, cfg.AttackDuration, results.DReceivedKbps)
	fmt.Println()

	fmt.Println("top talkers (offered load at the sender, by bytes):")
	for i, t := range talkers[:min(8, len(talkers))] {
		fmt.Printf("  %2d. %-15s %-7s %8d pkts %12d bytes\n", i+1, t.addr, t.label, t.packets, t.bytes)
	}
	fmt.Println()

	// Per-second rate around the attack boundary: quiet, ramp,
	// steady — the labeled windows an ML pipeline would train on.
	from := int(results.AttackIssuedAt/ddosim.Second) - 3
	fmt.Println("per-second received rate around the attack start (kbps):")
	for i, b := range sim.Windows().Values("sink_rx_bytes", from, from+12) {
		marker := ""
		if i == 3 {
			marker = "  <- attack order"
		}
		fmt.Printf("  t=%4ds  %10.1f%s\n", from+i, b*8/1000, marker)
	}
	fmt.Println()
	fmt.Println("The same data is exportable as CSV via `ddosim -out`, `-flows-out`")
	fmt.Println("and `-ts-out` — the dataset-generation workflow of §V-A.")
	return nil
}
