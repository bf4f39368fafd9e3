package torture

import (
	"fmt"
	"hash/crc32"
	"testing"
)

// goldenSchedules renders, for one seed, every schedule family's
// seed-derived Plan and a CRC of the generated call set — everything a
// replay depends on.
func goldenSchedules(t *testing.T, seed int64) []string {
	t.Helper()
	calls, err := tortureConfig(seed).Calls()
	if err != nil {
		t.Fatal(err)
	}
	return []string{
		fmt.Sprintf("calls crc=%08x", crc32.ChecksumIEEE([]byte(fmt.Sprintf("%v", calls)))),
		fmt.Sprintf("crash %+v", crashConfig(seed, 2).Plan()),
		fmt.Sprintf("heal %+v", healConfig(seed, 2).Plan()),
		fmt.Sprintf("gc %+v", gcConfig(seed, 2).Plan()),
		fmt.Sprintf("domain %+v", domainConfig(seed, 2).Plan()),
		fmt.Sprintf("coded %+v", codedConfig(seed).Plan()),
		fmt.Sprintf("checkpoint %+v", ckptConfig(seed, 2).Plan()),
		fmt.Sprintf("shard %+v", ShardConfig{Seed: seed}.Plan()),
		fmt.Sprintf("stream %+v", StreamConfig{Seed: seed}.Plan()),
	}
}

// goldenPlans are the schedules seeds 1-4 derived when each family was
// written, captured literally. A seed printed by a past CI failure must
// replay the same calls, victims and kill points forever: a refactor of
// the harness that moves any of these has silently re-rolled every
// recorded failure.
var goldenPlans = map[int64][]string{
	1: {
		"calls crc=44d93509",
		"crash {Victim:7 AfterCalls:23}",
		"heal {Victim:3 AfterCalls:9 Second:7}",
		"gc {Victim:3 AfterCalls:10}",
		"domain {VictimDomain:0 AfterCalls:19 Victims:[0 1]}",
		"coded {FirstDomain:5 SecondDomain:0 AfterCalls:8 FirstVictims:[10 11] SecondVictims:[0 1]}",
		"checkpoint {Victim:1 AfterEpoch:3}",
		"shard {Doomed:2 KillAfter:20}",
		"stream {Victim:7 AfterObjects:12 Torn:[10246 18550 5997]}",
	},
	2: {
		"calls crc=41eb834f",
		"crash {Victim:4 AfterCalls:24}",
		"heal {Victim:5 AfterCalls:12 Second:1}",
		"gc {Victim:0 AfterCalls:22}",
		"domain {VictimDomain:1 AfterCalls:12 Victims:[2 3]}",
		"coded {FirstDomain:5 SecondDomain:2 AfterCalls:13 FirstVictims:[10 11] SecondVictims:[4 5]}",
		"checkpoint {Victim:7 AfterEpoch:5}",
		"shard {Doomed:1 KillAfter:8}",
		"stream {Victim:1 AfterObjects:6 Torn:[35558 7060 19182]}",
	},
	3: {
		"calls crc=6566ca08",
		"crash {Victim:3 AfterCalls:16}",
		"heal {Victim:2 AfterCalls:13 Second:1}",
		"gc {Victim:6 AfterCalls:20}",
		"domain {VictimDomain:3 AfterCalls:12 Victims:[6 7]}",
		"coded {FirstDomain:0 SecondDomain:5 AfterCalls:16 FirstVictims:[0 1] SecondVictims:[10 11]}",
		"checkpoint {Victim:4 AfterEpoch:4}",
		"shard {Doomed:2 KillAfter:28}",
		"stream {Victim:6 AfterObjects:10 Torn:[13280 39339 13985]}",
	},
	4: {
		"calls crc=99d4a2be",
		"crash {Victim:7 AfterCalls:18}",
		"heal {Victim:7 AfterCalls:16 Second:3}",
		"gc {Victim:0 AfterCalls:15}",
		"domain {VictimDomain:1 AfterCalls:13 Victims:[2 3]}",
		"coded {FirstDomain:4 SecondDomain:2 AfterCalls:16 FirstVictims:[8 9] SecondVictims:[4 5]}",
		"checkpoint {Victim:6 AfterEpoch:3}",
		"shard {Doomed:0 KillAfter:12}",
		"stream {Victim:0 AfterObjects:9 Torn:[48722 56064 50247]}",
	},
}

// TestGoldenPlans pins every schedule family's Plan() and the call
// generator's output for the CI seeds.
func TestGoldenPlans(t *testing.T) {
	for seed, want := range goldenPlans {
		got := goldenSchedules(t, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d golden lines, %d rendered", seed, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d: schedule moved:\n got  %s\n want %s", seed, got[i], want[i])
			}
		}
	}
}
