// Quickstart: run the paper's headline scenario end-to-end — 20 IoT
// Devs running vulnerable Connman/Dnsmasq builds are exploited through
// memory errors, infected with Mirai, and ordered to flood TServer —
// then print every measurement the framework collects.
package main

import (
	"fmt"
	"os"

	"ddosim/ddosim"
	"ddosim/internal/report"
)

func main() {
	cfg := ddosim.DefaultConfig(20)
	cfg.AttackDuration = 60

	results, err := ddosim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	fmt.Println("=== DDoSim quickstart: 20 Devs, 60 s UDP-PLAIN flood ===")
	fmt.Println()
	fmt.Print(results.Summary())
	fmt.Println()

	// The kill chain, step by step.
	fmt.Println("kill chain:")
	for _, kind := range []string{
		ddosim.EventExploitHit, ddosim.EventBotJoined,
		ddosim.EventAttackOrder, ddosim.EventFloodStart,
	} {
		first, ok := results.Timeline.FirstOf(kind)
		if !ok {
			continue
		}
		fmt.Printf("  %-15s first at %8s (%d total)  e.g. %s\n",
			kind, first.At, results.Timeline.Count(kind), first.Actor)
	}

	// Per-second received rate at TServer over the attack window.
	fmt.Printf("\nTServer per-second rate (kbps): %s\n", report.Sparkline(results.PerSecondKbps))
	fmt.Printf("answer to R2: %.0f%% of targeted Devs were recruited\n", 100*results.InfectionRate())
}
