package simnet_test

import (
	"testing"

	"banyan"
	"banyan/internal/simnet"
)

// Replications of a simnet.Config are run by banyan.SimulateReplications,
// a one-point sweep on sweep.Runner. These tests pin the contract the
// replication runner owes simnet's Config and Replicated types: split
// seeds give distinct runs, the parallelism leaves the aggregate
// unchanged, and bad input is refused.

func TestRunReplicationsSeedsDiffer(t *testing.T) {
	cfg := &simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 55}
	rep, err := banyan.SimulateReplications(cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].MeanTotalWait() == rep.Runs[1].MeanTotalWait() &&
		rep.Runs[1].MeanTotalWait() == rep.Runs[2].MeanTotalWait() {
		t.Fatal("replications identical — seed splitting failed")
	}
}

func TestRunReplicationsDeterministic(t *testing.T) {
	cfg := &simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 55}
	a, err := banyan.SimulateReplications(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := banyan.SimulateReplications(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism must not change results.
	if a.MeanTotalWait() != b.MeanTotalWait() || a.VarTotalWait() != b.VarTotalWait() {
		t.Fatal("parallelism changed the aggregate")
	}
}

func TestRunReplicationsValidation(t *testing.T) {
	cfg := &simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 1000, Seed: 1}
	if _, err := banyan.SimulateReplications(cfg, 0, 1); err == nil {
		t.Fatal("expected replication-count error")
	}
	bad := &simnet.Config{K: 1, Stages: 3, P: 0.4, Cycles: 1000}
	if _, err := banyan.SimulateReplications(bad, 2, 1); err == nil {
		t.Fatal("expected config error")
	}
}
