package chaos_test

import (
	"testing"

	"lbc"
)

// These are the acceptance tests for the chaos harness: every named
// scenario — partition heal, crash/restart catch-up, storage failover
// — must pass its invariants (converged images, gap-free lock chains,
// merge+recovery equivalence), and a fixed seed must reproduce the
// run bit for bit.

func runTwice(t *testing.T, scenario string, seed int64) *lbc.ChaosReport {
	t.Helper()
	first, err := lbc.RunChaosScenario(scenario, seed)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	second, err := lbc.RunChaosScenario(scenario, seed)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if first.Digest != second.Digest {
		t.Fatalf("seed %d not reproducible: digest %016x vs %016x",
			seed, first.Digest, second.Digest)
	}
	if first.Commits != second.Commits || first.Records != second.Records {
		t.Fatalf("seed %d not reproducible: commits %d/%d records %d/%d",
			seed, first.Commits, second.Commits, first.Records, second.Records)
	}
	if first.Records == 0 {
		t.Fatal("scenario committed nothing")
	}
	return first
}

func TestPartitionHealScenario(t *testing.T) {
	rep := runTwice(t, "partition-heal", 42)
	if rep.Faults["partitioned_sends"] == 0 {
		t.Error("partition never blocked a send")
	}
	if rep.Faults["drops"] == 0 && rep.Faults["reorders"] == 0 {
		t.Error("no update faults fired; scenario is not exercising the injector")
	}
}

func TestCrashRestartScenario(t *testing.T) {
	rep := runTwice(t, "crash-restart", 42)
	if rep.Records != rep.Commits {
		t.Errorf("records %d != commits %d: restart duplicated or lost records",
			rep.Records, rep.Commits)
	}
}

func TestStoreFailoverScenario(t *testing.T) {
	rep := runTwice(t, "store-failover", 42)
	if rep.Faults["proxy_cuts"] == 0 {
		t.Error("no connection drops were injected")
	}
	if rep.Records != rep.Commits {
		t.Errorf("records %d != commits %d after failover", rep.Records, rep.Commits)
	}
}

func TestEvictRejoinScenario(t *testing.T) {
	rep := runTwice(t, "evict-rejoin", 42)
	if rep.Records != rep.Commits {
		t.Errorf("records %d != commits %d: eviction or rejoin lost committed records",
			rep.Records, rep.Commits)
	}
	if rep.Faults["drops"] == 0 && rep.Faults["reorders"] == 0 && rep.Faults["dups"] == 0 {
		t.Error("no update faults fired; scenario is not exercising the injector")
	}
}

func TestMigrateEvictScenario(t *testing.T) {
	rep := runTwice(t, "migrate-evict", 42)
	if rep.Records != rep.Commits {
		t.Errorf("records %d != commits %d: home migration or eviction lost committed records",
			rep.Records, rep.Commits)
	}
	if rep.Faults["lock_migrations"] == 0 {
		t.Error("no lock home migrated; scenario is not exercising the handoff")
	}
	if rep.Faults["drops"] == 0 && rep.Faults["reorders"] == 0 && rep.Faults["dups"] == 0 {
		t.Error("no update faults fired; scenario is not exercising the injector")
	}
}

func TestCorruptLogRepairScenario(t *testing.T) {
	rep := runTwice(t, "corrupt-log-repair", 42)
	if rep.Records != rep.Commits {
		t.Errorf("records %d != commits %d: repair duplicated or lost records",
			rep.Records, rep.Commits)
	}
	if rep.Faults["log_corruption_detected"] == 0 {
		t.Error("no corruption detected; scenario is not exercising the repair path")
	}
	if rep.Faults["repair_records_pulled"] == 0 {
		t.Error("no records pulled past the damage")
	}
}

// TestScenarioSeedSweep runs every scenario across a few seeds —
// different schedules, same invariants.
func TestScenarioSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	for _, sc := range lbc.ChaosScenarios() {
		for seed := int64(100); seed < 104; seed++ {
			if _, err := lbc.RunChaosScenario(sc, seed); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

// TestUnknownScenario pins the error path chaosrun relies on.
func TestUnknownScenario(t *testing.T) {
	if _, err := lbc.RunChaosScenario("nope", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
