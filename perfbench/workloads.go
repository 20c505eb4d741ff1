package main

import "ddosim/ddosim"

// workload is one scenario the benchmark runs through the public API.
// config receives the benchmark's --seed; everything else is fixed.
type workload struct {
	name   string
	config func(seed int64) ddosim.Config
	// floods marks a workload whose attack window carries flood
	// traffic; recruit's one-second attack ends before its bots'
	// jittered floods reach TServer.
	floods bool
}

// workloads are the benchmark's scenarios. All use the memory-error
// recruitment vector and DefaultConfig except for the fields set here.
// README.md records why each was chosen and which layers it stresses.
var workloads = []workload{
	{name: "flood", config: floodConfig, floods: true},
	{name: "recruit", config: func(seed int64) ddosim.Config {
		cfg := ddosim.DefaultConfig(5000)
		cfg.Seed = seed
		cfg.SimDuration = 70 * ddosim.Second
		cfg.AttackDuration = 1
		cfg.RecruitTimeout = 60 * ddosim.Second
		return cfg
	}},
	{name: "p2p-churn", config: func(seed int64) ddosim.Config {
		cfg := ddosim.DefaultConfig(1000)
		cfg.Seed = seed
		cfg.Botnet = ddosim.BotnetP2P
		cfg.Churn = ddosim.ChurnDynamic
		cfg.SimDuration = 200 * ddosim.Second
		cfg.AttackDuration = 30
		cfg.RecruitTimeout = 120 * ddosim.Second
		return cfg
	}, floods: true},
	{name: "flood-s2", config: func(seed int64) ddosim.Config {
		cfg := floodConfig(seed)
		cfg.Shards = 2
		return cfg
	}, floods: true},
}

// floodConfig saturates TServer's 25 Mbps downlink with 200 bots for
// 100 simulated seconds.
func floodConfig(seed int64) ddosim.Config {
	cfg := ddosim.DefaultConfig(200)
	cfg.Seed = seed
	cfg.SimDuration = 300 * ddosim.Second
	cfg.AttackDuration = 100
	cfg.RecruitTimeout = 120 * ddosim.Second
	return cfg
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
