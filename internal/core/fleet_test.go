package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/learn"
	"repro/internal/polca"
	"repro/internal/remote"
)

// sameTrajectory compares learner stats up to wall-clock time: every
// deterministic field must match; Duration is measurement, not trajectory.
func sameTrajectory(a, b learn.Stats) bool {
	a.Duration, b.Duration = 0, 0
	return a == b
}

// startFleet boots n loopback polcaworker-equivalent servers and returns
// their addresses.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(remote.NewWorker(remote.WorkerConfig{}).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestFleetLearnMatchesSingleBox is the tentpole acceptance check: learning
// a policy through four loopback workers produces byte-identical machine
// JSON and an identical learner trajectory to the single-box run. The
// prefetch width is pinned so both legs see the same chunked query stream;
// answers are deterministic, so the merge layer's submission-order
// reassembly makes everything downstream identical.
func TestFleetLearnMatchesSingleBox(t *testing.T) {
	addrs := startFleet(t, 4)
	policies := []string{"New1", "LRU"}
	if testing.Short() {
		policies = policies[1:] // New1's ~74k queries are the long pole
	}
	for _, name := range policies {
		t.Run(name, func(t *testing.T) {
			opt := learn.Options{Depth: 1, BatchSize: 32}
			local, err := LearnSimulated(context.Background(), SimRequest{Policy: name, Assoc: 4, Learn: opt})
			if err != nil {
				t.Fatalf("single-box: %v", err)
			}
			dist, err := LearnSimulated(context.Background(), SimRequest{
				Policy: name,
				Assoc:  4,
				Learn:  opt,
				Sim:    SimOptions{FleetWorkers: addrs},
			})
			if err != nil {
				t.Fatalf("distributed: %v", err)
			}
			jl, err := json.Marshal(local.Machine)
			if err != nil {
				t.Fatal(err)
			}
			jd, err := json.Marshal(dist.Machine)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jl, jd) {
				t.Error("distributed run produced different machine JSON")
			}
			if !sameTrajectory(local.LearnStats, dist.LearnStats) {
				t.Errorf("learner trajectory diverged: single-box %+v, distributed %+v",
					local.LearnStats, dist.LearnStats)
			}
			if dist.Fleet == nil {
				t.Fatal("distributed result carries no fleet stats")
			}
			busy := 0
			for _, w := range dist.Fleet.Workers {
				if w.Probes > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Errorf("only %d of %d workers served probes; the batch never fanned out", busy, len(dist.Fleet.Workers))
			}
		})
	}
}

// TestFleetLearnSurvivesWorkerDeath kills one of four workers mid-learn:
// the fleet quarantines it, re-executes its in-flight sub-batches on the
// survivors, and the learned machine is still byte-identical to a
// single-box run.
func TestFleetLearnSurvivesWorkerDeath(t *testing.T) {
	addrs := startFleet(t, 3)

	// The fourth worker dies (hard 502s) after answering 10 probe
	// requests.
	var served atomic.Int64
	victim := remote.NewWorker(remote.WorkerConfig{})
	inner := victim.Handler()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 10 {
			http.Error(w, "worker killed mid-learn", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)
	addrs = append(addrs, dying.URL)

	name := "New1"
	if testing.Short() {
		name = "LRU" // same death window, ~20x fewer queries
	}
	opt := learn.Options{Depth: 1, BatchSize: 32}
	local, err := LearnSimulated(context.Background(), SimRequest{Policy: name, Assoc: 4, Learn: opt})
	if err != nil {
		t.Fatalf("single-box: %v", err)
	}
	retry := &polca.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 1}
	dist, err := LearnSimulated(context.Background(), SimRequest{
		Policy: name,
		Assoc:  4,
		Learn:  opt,
		Sim:    SimOptions{FleetWorkers: addrs, Retry: retry},
	})
	if err != nil {
		t.Fatalf("distributed with dying worker: %v", err)
	}

	jl, _ := json.Marshal(local.Machine)
	jd, _ := json.Marshal(dist.Machine)
	if !bytes.Equal(jl, jd) {
		t.Error("losing a worker changed the machine JSON")
	}
	if !sameTrajectory(local.LearnStats, dist.LearnStats) {
		t.Errorf("losing a worker changed the learner trajectory: %+v vs %+v", local.LearnStats, dist.LearnStats)
	}
	if served.Load() <= 10 {
		t.Skip("learn finished before the victim's death window")
	}
	if dist.Fleet.Quarantined == 0 {
		t.Error("dead worker was never quarantined")
	}
}

// TestFleetWarmupShipsSnapshots: when one worker already holds a probe
// memo for the scope, OpenSimOracle's warm-up levels the fleet before
// learning — the cold workers receive the snapshot instead of re-probing
// everything from scratch.
func TestFleetWarmupShipsSnapshots(t *testing.T) {
	addrs := startFleet(t, 2)

	// Warm worker 0 by learning through it alone.
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy: "LRU",
		Assoc:  4,
		Learn:  learn.Options{Depth: 1},
		Sim:    SimOptions{FleetWorkers: addrs[:1]},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := LearnSimulated(context.Background(), SimRequest{
		Policy: "LRU",
		Assoc:  4,
		Learn:  learn.Options{Depth: 1},
		Sim:    SimOptions{FleetWorkers: addrs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Shipped == 0 {
		t.Error("warm-up shipped no snapshot to the cold worker")
	}
}

// TestFleetRejectsFaultInjection: the fleet serves real transport
// failures; combining it with the deterministic fault injector is a
// configuration error, not a silent downgrade.
func TestFleetRejectsFaultInjection(t *testing.T) {
	_, _, _, _, err := OpenSimOracle(context.Background(), "LRU", 4, SimOptions{
		FleetWorkers: []string{"localhost:1"},
		Faults:       &faulty.Plan{Seed: 1, ErrRate: 0.05, DieReplica: -1},
	})
	if err == nil {
		t.Fatal("fleet + fault injection accepted, want an error")
	}
}
