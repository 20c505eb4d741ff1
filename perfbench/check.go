package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"ddosim/ddosim"
)

// outputs are the simulated statistics every run is checked on. They
// depend only on the workload and the seed, so a change that only
// makes the simulator faster leaves every field identical. Event
// counts are simulator-internal and deliberately absent.
type outputs struct {
	Devs          int     `json:"devs"`
	Attempts      int     `json:"attempts"`
	Hijacked      int     `json:"hijacked"`
	Crashed       int     `json:"crashed"`
	Infected      int     `json:"infected"`
	Registered    int     `json:"registered"`
	AtCommand     int     `json:"at_command"`
	DReceivedKbps float64 `json:"d_received_kbps"`
	SinkBytes     uint64  `json:"sink_bytes"`
	TxFrames      uint64  `json:"tx_frames"`
	Drops         uint64  `json:"drops"`
	FlowRecords   int     `json:"flow_records"`
}

func outputsOf(r *ddosim.Results) outputs {
	return outputs{
		Devs:          r.DevsTotal,
		Attempts:      r.ExploitAttempts,
		Hijacked:      r.Hijacked,
		Crashed:       r.Crashed,
		Infected:      r.Infected,
		Registered:    r.BotsRegistered,
		AtCommand:     r.BotsAtCommand,
		DReceivedKbps: r.DReceivedKbps,
		SinkBytes:     r.SinkBytes,
		TxFrames:      r.NetStats.TxFrames,
		Drops:         r.NetStats.Drops,
		FlowRecords:   r.Flows.Flows,
	}
}

// digest is a short fingerprint of a run's outputs for the report.
func (o outputs) digest() string {
	b, _ := json.Marshal(o) // a struct of numbers always marshals
	return fmt.Sprintf("%x", sha256.Sum256(b))[:12]
}

// defaultSeed is the seed whose outputs are pinned in pinned.
const defaultSeed = 1

// pinned holds each workload's outputs at defaultSeed. flood and
// flood-s2 differ: the classic kernel and the sharded kernel are two
// artifact families (the sharded one is invariant across shard counts
// >= 1, not equal to the classic one).
var pinned = map[string]outputs{
	"flood": {Devs: 200, Attempts: 200, Hijacked: 200, Crashed: 0, Infected: 200, Registered: 200, AtCommand: 200,
		DReceivedKbps: 23173.731359999998, SinkBytes: 364828390, TxFrames: 2045986, Drops: 697724, FlowRecords: 3406},
	"recruit": {Devs: 5000, Attempts: 5000, Hijacked: 5000, Crashed: 0, Infected: 5000, Registered: 5000, AtCommand: 5000,
		DReceivedKbps: 0, SinkBytes: 2155060, TxFrames: 403667, Drops: 39013, FlowRecords: 45102},
	"p2p-churn": {Devs: 1000, Attempts: 1000, Hijacked: 1000, Crashed: 0, Infected: 1000, Registered: 1000, AtCommand: 979,
		DReceivedKbps: 6101.238933333333, SinkBytes: 22945018, TxFrames: 421599, Drops: 1652, FlowRecords: 72351},
	"flood-s2": {Devs: 200, Attempts: 200, Hijacked: 200, Crashed: 0, Infected: 200, Registered: 200, AtCommand: 200,
		DReceivedKbps: 23543.6704, SinkBytes: 366222254, TxFrames: 2048502, Drops: 695206, FlowRecords: 3406},
}

// checkOutputs reports why o is not a valid result of workload w at
// seed, or nil. Every seed must satisfy the invariants; defaultSeed
// must also reproduce the pinned outputs exactly.
func checkOutputs(w workload, seed int64, o outputs) error {
	cfg := w.config(seed)
	switch {
	case o.Devs != cfg.NumDevs:
		return fmt.Errorf("devs %d, configured %d", o.Devs, cfg.NumDevs)
	case o.Infected < 1 || o.Infected > o.Devs:
		return fmt.Errorf("infected %d outside [1, %d]", o.Infected, o.Devs)
	case o.Infected > o.Hijacked || o.Hijacked > o.Attempts:
		return fmt.Errorf("need infected %d <= hijacked %d <= attempts %d", o.Infected, o.Hijacked, o.Attempts)
	case o.Crashed > o.Attempts:
		return fmt.Errorf("crashed %d > attempts %d", o.Crashed, o.Attempts)
	case o.Registered > o.Devs:
		return fmt.Errorf("registered %d > devs %d", o.Registered, o.Devs)
	case o.AtCommand < 1 || o.AtCommand > o.Devs:
		return fmt.Errorf("bots at command %d outside [1, %d]", o.AtCommand, o.Devs)
	case o.SinkBytes == 0 || !(o.DReceivedKbps >= 0):
		return fmt.Errorf("no traffic reached TServer (%.3f kbps, %d bytes)", o.DReceivedKbps, o.SinkBytes)
	case w.floods && !(o.DReceivedKbps > 0):
		return fmt.Errorf("no flood traffic in the attack window")
	case o.Drops > o.TxFrames:
		return fmt.Errorf("drops %d > tx frames %d", o.Drops, o.TxFrames)
	case o.FlowRecords < 1:
		return fmt.Errorf("no flow records exported")
	}
	if seed != defaultSeed {
		return nil
	}
	want, ok := pinned[w.name]
	if !ok {
		return fmt.Errorf("no pinned outputs for workload %q; got %+v", w.name, o)
	}
	if o != want {
		return fmt.Errorf("outputs differ from the pinned seed-%d values:\n got  %+v\n want %+v", defaultSeed, o, want)
	}
	return nil
}
