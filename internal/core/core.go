// Package core wires the CacheQuery reproduction into end-to-end pipelines:
// learning replacement policies from software-simulated caches (§6),
// learning them from the simulated silicon CPUs through CacheQuery (§7),
// and synthesizing rule-based explanations of the results (§5, §8). The
// command-line tools, the examples and the benchmark harness are thin
// clients of this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/cachequery"
	"repro/internal/faulty"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
	"repro/internal/synth"
)

// SimResult is the outcome of learning from a software-simulated cache.
type SimResult struct {
	Policy      string
	Assoc       int
	Machine     *mealy.Machine
	LearnStats  learn.Stats
	OracleStats polca.Stats
}

// SnapshotOptions controls oracle query-store persistence around a
// learning run. Snapshots make learning warm-startable: a saved store
// answers every previously-asked policy query from disk, so a re-learn
// touches the backend only for genuinely new words.
type SnapshotOptions struct {
	// WarmPath, when set, loads this snapshot into the oracle before
	// learning. The snapshot must have been recorded for the same system
	// (policy/associativity, or CPU/target/reset) — the scope check
	// refuses anything else.
	WarmPath string
	// SavePath, when set, writes the oracle's query store here after a
	// successful learning run.
	SavePath string
	// CheckpointEvery, when positive, auto-snapshots the oracle's query
	// store to SavePath every CheckpointEvery output queries during the
	// run, so a crashed or killed learn can resume warm from the latest
	// checkpoint (pass the same path as WarmPath on the next run). Each
	// checkpoint is written through a temp file and an atomic rename; a
	// crash mid-checkpoint never destroys the previous one. Requires
	// SavePath: the pipelines refuse a cadence without one before their
	// first probe.
	CheckpointEvery int
	// ColdOnDamage degrades a warm start to a cold run — instead of
	// failing it — when WarmPath is missing (fs.ErrNotExist) or its
	// content is damaged (qstore.ErrCorrupt: truncation, checksum or
	// format errors). A scope mismatch (polca.ErrSnapshotScope) still
	// fails: a snapshot recorded for a different system is a caller bug,
	// not damage.
	ColdOnDamage bool
}

// SimSnapshotScope is the scope string tagging simulator snapshots: the
// learned system is fully identified by policy name and associativity.
func SimSnapshotScope(policyName string, assoc int) string {
	return fmt.Sprintf("sim:%s-%d", policyName, assoc)
}

// SnapshotPathInDir is the canonical per-system snapshot file inside a
// snapshot directory: <dir>/<policy>-<assoc>.qs.
func SnapshotPathInDir(dir, policyName string, assoc int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.qs", policyName, assoc))
}

// SnapshotInDir builds the SnapshotOptions shared by the snapshot-dir
// flows (cmd/experiments table2, cmd/genmodels): the system's store is
// always saved into dir, and warm-starts from it when a snapshot already
// exists there. An empty dir disables persistence.
func SnapshotInDir(dir, policyName string, assoc int) SnapshotOptions {
	if dir == "" {
		return SnapshotOptions{}
	}
	path := SnapshotPathInDir(dir, policyName, assoc)
	snap := SnapshotOptions{SavePath: path}
	if _, err := os.Stat(path); err == nil {
		snap.WarmPath = path
	}
	return snap
}

// LoadOracleSnapshot warm-starts an oracle from a snapshot file. With
// coldOnDamage, a missing or corrupt snapshot degrades to a cold start
// (returning warm=false, err=nil) rather than failing the run; the oracle's
// store is untouched in that case, because snapshot loading verifies
// checksums and parses every entry before applying anything. The learning
// pipelines below and the polcad daemon (internal/daemon) share this exact
// load path, so a snapshot written by one is always loadable by the other.
func LoadOracleSnapshot(oracle *polca.Oracle, path, scope string, coldOnDamage bool) (warm bool, err error) {
	fh, err := os.Open(path)
	if err != nil {
		if coldOnDamage && errors.Is(err, qstore.ErrMissing) {
			return false, nil
		}
		return false, fmt.Errorf("core: warm start: %w", err)
	}
	defer fh.Close()
	if err := oracle.LoadSnapshot(fh, scope); err != nil {
		if coldOnDamage && errors.Is(err, qstore.ErrCorrupt) {
			fmt.Fprintf(os.Stderr, "core: warm start from %s: %v; starting cold\n", path, err)
			return false, nil
		}
		return false, fmt.Errorf("core: warm start from %s: %w", path, err)
	}
	return true, nil
}

// SaveOracleSnapshot persists an oracle's query store to a snapshot file
// through WriteFileAtomic, so a crash, a power loss or a full disk
// mid-write never destroys an existing good snapshot — which the
// snapshot-dir auto-warm flows would otherwise keep failing on.
func SaveOracleSnapshot(oracle *polca.Oracle, path, scope string) error {
	err := WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		return oracle.SaveSnapshot(w, scope)
	})
	if err != nil {
		return fmt.Errorf("core: saving snapshot to %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic replaces path with the bytes write produces. It writes a
// temp file in path's directory, syncs it, closes it, sets its mode to
// perm and renames it over path. On any failure it removes the temp file
// and leaves the previous file at path untouched; the sync before the
// rename keeps a power loss from leaving an empty or partial file there.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	fh, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := fh.Name()
	err = write(fh)
	if err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// check refuses options that would silently do less than asked: a
// checkpoint cadence needs a SavePath to write its checkpoints to. The
// pipelines call it before their first probe.
func (s SnapshotOptions) check() error {
	if s.CheckpointEvery > 0 && s.SavePath == "" {
		return fmt.Errorf("core: CheckpointEvery %d needs a SavePath to write checkpoints to", s.CheckpointEvery)
	}
	return nil
}

// armCheckpoints wires periodic auto-snapshots into an oracle: every
// CheckpointEvery output queries the store is saved to SavePath through the
// same atomic-rename path as the final save. Checkpointing is best-effort —
// a failed write is reported and the run continues; the next window tries
// again.
func armCheckpoints(oracle *polca.Oracle, snap SnapshotOptions, scope string) {
	if snap.CheckpointEvery <= 0 {
		return
	}
	oracle.SetCheckpointer(snap.CheckpointEvery, func() {
		if err := SaveOracleSnapshot(oracle, snap.SavePath, scope); err != nil {
			fmt.Fprintf(os.Stderr, "core: checkpoint: %v\n", err)
		}
	})
}

// SimOptions configures the simulated-cache learning stack below the
// learner. The zero value probes an in-process simulator on the compiled
// policy kernel; polca.NewSimProber falls back to the interpreted Policy
// interface for policies that cannot be compiled.
type SimOptions struct {
	// Faults, when set, interposes a deterministic fault injector
	// (internal/faulty) between the oracle and the simulator: probes
	// suffer the plan's seeded mix of transient errors, stalls and
	// answer flips, exercised against the oracle's retry policy. The
	// wrapper hides the simulator's query engine, so a faulty run takes
	// the reset-rooted probe path the resilience machinery defends. When
	// the plan flips answers, probe voting is enabled automatically so
	// the learned machine still converges to the ground truth.
	Faults *faulty.Plan
	// Retry, when set, overrides the oracle's transient-failure retry
	// policy (polca.DefaultRetryPolicy otherwise). Soak tests use it to
	// shrink the backoff sleeps; the retry semantics are identical.
	Retry *polca.RetryPolicy
}

// SimRequest configures one §6 learning run against a software-simulated
// cache.
type SimRequest struct {
	// Policy and Assoc name the simulated policy (policy.New).
	Policy string
	Assoc  int
	// Learn configures the learner — algorithm (learn.AlgoLStar or
	// learn.AlgoTree), conformance suite, budgets. Depth is taken as
	// given: 0 runs the conformance suite at k = 0; the paper's k = 1 is
	// Depth 1.
	Learn learn.Options
	// Snapshot controls oracle query-store persistence: an existing
	// snapshot warm-starts the oracle (the learner replays recorded
	// answers from disk and probes the simulator only for new words), and
	// the store can be saved after the run for the next one. The learned
	// machine — and the learner's whole query trajectory — is
	// bit-identical cold or warm; only the backend probe count changes.
	Snapshot SnapshotOptions
	// Sim configures the stack below the learner: fault injection and
	// retry policy.
	Sim SimOptions
}

// LearnSimulated learns a policy from a software-simulated cache (the §6
// case study). The simulator oracle hints a batch width of 1, so the
// learner's observation-table rows (or discrimination-tree experiments,
// with Learn.Algo = learn.AlgoTree) and conformance words are asked one at
// a time through the oracle's query engine, exactly as a serial learn asks
// them. The returned machine
// is checked against nothing: callers that know the ground truth can
// extract it with mealy.FromPolicy and compare.
func LearnSimulated(ctx context.Context, req SimRequest) (*SimResult, error) {
	if err := req.Snapshot.check(); err != nil {
		return nil, err
	}
	oracle, canonical, scope, err := NewSimOracle(req.Policy, req.Assoc, req.Sim)
	if err != nil {
		return nil, err
	}
	snap := req.Snapshot
	if snap.WarmPath != "" {
		if _, err := LoadOracleSnapshot(oracle, snap.WarmPath, scope, snap.ColdOnDamage); err != nil {
			return nil, err
		}
	}
	armCheckpoints(oracle, snap, scope)
	res, err := learn.Learn(ctx, oracle, req.Learn)
	if err != nil {
		return nil, err
	}
	if snap.SavePath != "" {
		if err := SaveOracleSnapshot(oracle, snap.SavePath, scope); err != nil {
			return nil, err
		}
	}
	return &SimResult{
		Policy:      canonical,
		Assoc:       req.Assoc,
		Machine:     res.Machine,
		LearnStats:  res.Stats,
		OracleStats: oracle.Stats(),
	}, nil
}

// NewSimOracle builds the simulated-cache Polca oracle for a named policy
// exactly as LearnSimulated does: compiled kernel (one table per policy and
// process, policy.CompileNamed), fault injection and retry policy per
// SimOptions. It returns the oracle, the policy's canonical name, and the
// snapshot scope tagging the oracle's query store. The polcad daemon
// (internal/daemon), the benchmark harness and the tests build their
// oracles here too, so a daemon-served learn is the same pipeline — and
// produces the same bytes — as cmd/polca.
func NewSimOracle(policyName string, assoc int, sim SimOptions) (oracle *polca.Oracle, canonical, scope string, err error) {
	pol, err := policy.New(policyName, assoc)
	if err != nil {
		return nil, "", "", err
	}
	var opts []polca.Option
	if sim.Retry != nil {
		opts = append(opts, polca.WithProbeRetries(*sim.Retry))
	}
	// Named policies compile once per process; each oracle steps its own
	// view of the shared table. A policy the kernel cannot compile stays
	// interpreted, as NewSimProber would leave it.
	var prober polca.Prober
	if t, err := policy.CompileNamed(policyName, assoc, policy.DefaultCompileStates); err == nil {
		prober = polca.NewSimProber(t.At(t.InitState()))
	} else {
		prober = polca.NewInterpretedSimProber(pol)
	}
	if sim.Faults != nil {
		prober = faulty.WrapProber(prober, faulty.NewInjector(*sim.Faults))
		if sim.Faults.FlipRate > 0 {
			opts = append(opts, polca.WithProbeVotes(3))
		}
	}
	return polca.NewOracle(prober, opts...), pol.Name(), SimSnapshotScope(pol.Name(), assoc), nil
}

// HardwareRequest configures one §7 learning run against a simulated CPU.
type HardwareRequest struct {
	CPU     *hw.CPU
	Target  cachequery.Target
	Backend cachequery.BackendOptions
	// NewCPU, when set, builds additional CPU replicas from the same
	// configuration and enables the concurrent membership-query engine:
	// batched output queries are answered by a pool of replicated
	// (CPU, frontend, backend) stacks. Each replica frontend keeps no
	// result cache — the oracle's probe memo answers every repeat. A
	// physical deployment would hand out one factory per reserved core.
	NewCPU func() *hw.CPU
	// Replicas is the parallel pool size used when NewCPU is set; 0
	// selects runtime.GOMAXPROCS(0), 1 keeps the serial pipeline.
	Replicas int
	// CATWays, when non-zero, virtually reduces the L3 associativity
	// before provisioning (requires CAT support).
	CATWays int
	// Resets are the candidate reset sequences to try in order; an empty
	// list defaults to Flush+Refill.
	Resets []cachequery.Reset
	// Learn configures the learner — algorithm (learn.AlgoLStar or
	// learn.AlgoTree), conformance suite, budgets; Depth defaults to the
	// paper's k=1.
	Learn learn.Options
	// DeterminismEvery re-checks every n-th Polca query (0 disables).
	DeterminismEvery int
	// Snapshot controls oracle query-store persistence. Snapshots are
	// scoped to (CPU model, target, reset): a warm path recorded under a
	// different reset fails that candidate and the next reset is tried.
	Snapshot SnapshotOptions
	// Faults, when set, injects the plan's seeded fault mix into every
	// replica's probes (and kills the plan's die=replica@count victim, if
	// any), exercised against the full resilience stack: oracle retry
	// with backoff, probe voting when the plan flips answers, and pool
	// quarantine of repeatedly-failing replicas.
	Faults *faulty.Plan
	// Retry, when set, overrides the oracle's transient-failure retry
	// policy (polca.DefaultRetryPolicy otherwise).
	Retry *polca.RetryPolicy
}

// HardwareResult is the outcome of a §7 learning run.
type HardwareResult struct {
	Machine     *mealy.Machine
	Reset       cachequery.Reset
	LearnStats  learn.Stats
	OracleStats polca.Stats
	Frontend    cachequery.FrontendStats
}

// LearnHardware drives the full hardware pipeline: CAT setup, backend
// provisioning and calibration, reset-sequence selection, and the learning
// loop through Polca and CacheQuery. Candidate resets are tried in order;
// a wrong reset manifests as nondeterminism (or a state-budget overflow)
// and the next candidate is tried, mirroring the paper's §7.1 procedure.
//
// With a NewCPU factory and more than one replica, the learning loop runs
// on the concurrent membership-query engine: the learner batches its
// observation-table and conformance queries, Polca fans them out over
// parallel goroutines, and each goroutine probes a pooled CPU replica.
func LearnHardware(ctx context.Context, req HardwareRequest) (*HardwareResult, error) {
	if err := req.Snapshot.check(); err != nil {
		return nil, err
	}
	if req.CATWays > 0 {
		if err := req.CPU.SetCATWays(req.CATWays); err != nil {
			return nil, err
		}
	}
	// The oracle's probe memo answers every repeated probe, so the
	// frontend's result cache stays off: every probe that reaches a
	// frontend executes, votes and determinism re-checks included.
	f := cachequery.NewFrontend(req.CPU, req.Backend)
	f.SetResultCache(false)
	be, err := f.Backend(req.Target)
	if err != nil {
		return nil, err
	}
	resets := req.Resets
	if len(resets) == 0 {
		resets = []cachequery.Reset{cachequery.FlushRefill(be.Assoc())}
	}
	if req.Learn.Depth == 0 {
		req.Learn.Depth = 1
	}

	// Build the CPU-replica pool once; the provisioned backends are reused
	// by every reset candidate.
	replicas := req.Replicas
	if replicas == 0 {
		replicas = runtime.GOMAXPROCS(0)
	}
	var fronts []*cachequery.Frontend
	if req.NewCPU != nil && replicas > 1 {
		mkCPU := func() *hw.CPU {
			cpu := req.NewCPU()
			if req.CATWays > 0 {
				// Support was already validated on the primary CPU.
				if err := cpu.SetCATWays(req.CATWays); err != nil {
					panic(fmt.Sprintf("core: CAT rejected on a replica: %v", err))
				}
			}
			return cpu
		}
		fronts, err = cachequery.NewReplicaFrontends(mkCPU, req.Backend, req.Target, replicas)
		if err != nil {
			return nil, err
		}
	}

	// A fault plan shares one injector across every reset candidate and
	// replica, so plan-wide budgets (crash=N) span the whole run.
	var inj *faulty.Injector
	if req.Faults != nil {
		inj = faulty.NewInjector(*req.Faults)
	}

	var lastErr error
	for _, rst := range resets {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if len(rst.Content) == 0 {
			content, err := cachequery.DiscoverInitialContent(ctx, f, req.Target, rst)
			if err != nil {
				lastErr = err
				continue
			}
			rst.Content = content
		}
		var prober polca.Prober
		frontendStats := func() cachequery.FrontendStats { return f.Stats() }
		if fronts != nil {
			var poolOpts []cachequery.PoolOption
			if inj != nil {
				die := faulty.ReplicaWrapper(*req.Faults)
				poolOpts = append(poolOpts, cachequery.WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
					if die != nil {
						p = die(i, p)
					}
					return faulty.WrapProber(p, inj)
				}))
			}
			pp, err := cachequery.NewParallelProber(fronts, req.Target, rst, poolOpts...)
			if err != nil {
				lastErr = err
				continue
			}
			prober = pp
			frontendStats = func() cachequery.FrontendStats {
				s := pp.FrontendStats()
				s.Add(f.Stats()) // reset-content discovery runs on the primary
				return s
			}
		} else {
			pr, err := cachequery.NewProber(f, req.Target, rst)
			if err != nil {
				lastErr = err
				continue
			}
			prober = pr
			if inj != nil {
				prober = faulty.WrapProber(prober, inj)
			}
		}
		var opts []polca.Option
		if req.DeterminismEvery > 0 {
			opts = append(opts, polca.WithDeterminismChecks(req.DeterminismEvery))
		}
		if req.Replicas > 0 {
			opts = append(opts, polca.WithParallelism(req.Replicas))
		}
		if req.Faults != nil && req.Faults.FlipRate > 0 {
			opts = append(opts, polca.WithProbeVotes(3))
		}
		if req.Retry != nil {
			opts = append(opts, polca.WithProbeRetries(*req.Retry))
		}
		oracle := polca.NewOracle(prober, opts...)
		scope := hardwareSnapshotScope(req, rst)
		if req.Snapshot.WarmPath != "" {
			if _, err := LoadOracleSnapshot(oracle, req.Snapshot.WarmPath, scope, req.Snapshot.ColdOnDamage); err != nil {
				lastErr = err
				continue
			}
		}
		armCheckpoints(oracle, req.Snapshot, scope)
		res, err := learn.Learn(ctx, oracle, req.Learn)
		if err != nil {
			// A canceled or expired context dooms every remaining reset
			// candidate too: unwind now instead of burning them.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("reset %q: %w", rst.Name(), err)
			}
			lastErr = fmt.Errorf("reset %q: %w", rst.Name(), err)
			continue
		}
		if req.Snapshot.SavePath != "" {
			if err := SaveOracleSnapshot(oracle, req.Snapshot.SavePath, scope); err != nil {
				return nil, err
			}
		}
		return &HardwareResult{
			Machine:     res.Machine,
			Reset:       rst,
			LearnStats:  res.Stats,
			OracleStats: oracle.Stats(),
			Frontend:    frontendStats(),
		}, nil
	}
	return nil, fmt.Errorf("core: every reset candidate failed, last error: %w", lastErr)
}

// hardwareSnapshotScope tags hardware snapshots with everything the
// recorded trace semantics depends on: CPU model, CAT configuration,
// target set, and the reset that roots every probe.
func hardwareSnapshotScope(req HardwareRequest, rst cachequery.Reset) string {
	return fmt.Sprintf("hw:%s/cat=%d/%s/reset=%s", req.CPU.Config().Name, req.CATWays, req.Target, rst.Name())
}

// ResetCandidatesFor computes reset candidates for a known policy using the
// synchronizing-sequence search, plus the generic Flush+Refill. This is the
// white-box convenience the experiment harness uses; fully black-box runs
// pass hand-picked candidates instead, as the paper's authors did.
func ResetCandidatesFor(pol policy.Policy) []cachequery.Reset {
	var out []cachequery.Reset
	if rr, err := cache.FindResetSequence(pol, 0); err == nil {
		out = append(out, cachequery.Reset{
			FlushFirst: rr.FlushFirst,
			Sequence:   rr.Sequence,
			Content:    rr.Content,
		})
	}
	out = append(out, cachequery.FlushRefill(pol.Assoc()))
	return out
}

// GroundTruthAfterReset extracts the Mealy machine of a known policy rooted
// at the state its reset sequence reaches, for verifying hardware learning
// results.
func GroundTruthAfterReset(pol policy.Policy, rst cachequery.Reset) (*mealy.Machine, error) {
	set := cache.NewEmptySet(pol.Clone())
	if !rst.FlushFirst {
		// Model unknown pre-reset content with placeholder blocks outside
		// the probe universe; a verified reset converges from any state.
		for i := 0; i < pol.Assoc(); i++ {
			set.Access(blocks.Block(fmt.Sprintf("Z%d", 90+i)))
		}
	}
	for _, b := range rst.Sequence {
		set.Access(b)
	}
	return mealy.FromPolicyState(set.Policy(), 0)
}

// Explain synthesizes a rule-based explanation for a learned machine.
func Explain(m *mealy.Machine, opt synth.Options) (*synth.Result, error) {
	return synth.Synthesize(m, opt)
}
