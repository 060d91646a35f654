// Command genmodels regenerates the published Mealy-machine artifacts in
// models/: one JSON file per policy/associativity pair of the paper's Table 2
// subset that this repository ships models for, the assoc-8 extension
// artifacts the compiled policy kernel made practical to extract and verify,
// and the synth.Family zoo — seeded random rule programs, permutation
// policies and DIP-style duels spanning associativities 4 through 16.
//
// Every artifact is produced in parallel on its own goroutine. By default
// each registry policy is learned through the concurrent membership-query
// engine (learner -> batched Polca oracle -> software-simulated cache, on
// the compiled policy kernel) and each zoo member through a registry-free
// oracle over its generated policy; the result is verified trace-equivalent
// against the machine extracted from the policy implementation before
// anything is written. The canonical extracted machine (whose state names
// are the policy's control states) is what lands on disk. -quick skips the
// learning cross-check and just extracts. The two assoc-8 giants (LRU-8 has
// 40,320 control states, SRRIP-HP-8 43,818) and the heavy zoo members
// (hundreds of states, or mid-sized machines at 13+ input alphabets) are
// extraction-verified only unless -verify-heavy opts into their
// multi-minute learning cross-check.
//
// -zoo closes the loop on the zoo's in-grammar members (the assoc-4 RuleZ
// programs): each one is learned from its black-box policy, a rule program
// is re-synthesized from the learned machine with the parallel CEGIS
// search, and the synthesized program is compiled and verified equivalent
// to the extracted truth — learning, synthesis and extraction must agree
// before the artifact is written. -only samples the artifact list by
// substring (the nightly zoo-verify job regenerates a slice this way and
// diffs it against the committed files).
//
//	go run repro/cmd/genmodels            # regenerate models/ in place
//	go run repro/cmd/genmodels -out /tmp  # write elsewhere
//	go run repro/cmd/genmodels -quick     # extraction only, no learning
//	go run repro/cmd/genmodels -zoo -only RuleZ0  # learn+synth a zoo slice
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/synth"
)

// artifact is one model file to produce: either a registry-published
// policy (spec != nil) or a generated zoo member (member != nil).
type artifact struct {
	name   string
	assoc  int
	heavy  bool
	spec   *mealy.PublishedModel
	member *synth.FamilyMember
}

func (a artifact) fresh() policy.Policy {
	if a.member != nil {
		return a.member.New()
	}
	return policy.MustNew(a.name, a.assoc)
}

func main() {
	out := flag.String("out", "models", "output directory for the JSON artifacts")
	quick := flag.Bool("quick", false, "skip the learning cross-check; extract the machines only")
	verifyHeavy := flag.Bool("verify-heavy", false, "learning cross-check for the assoc-8 giants too (minutes per artifact)")
	algoName := flag.String("algo", "lstar", "learning algorithm for the cross-check: lstar or tree")
	snapshotDir := flag.String("snapshot-dir", "", "per-policy oracle snapshot directory for the cross-check: existing snapshots warm-start the re-learn, fresh stores are saved back")
	timeout := flag.Duration("timeout", 0, "abort the regeneration after this long (0 = no deadline); Ctrl-C cancels cleanly either way")
	zoo := flag.Bool("zoo", false, "learn->synthesize->cross-verify the in-grammar zoo members (assoc-4 rule programs) before writing them")
	only := flag.String("only", "", "generate only the artifacts whose name-assoc contains this substring")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	algo, err := learn.ParseAlgo(*algoName)
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// The registry artifact list lives in internal/mealy next to the test
	// that verifies it (mealy.TestModelArtifacts) and the zoo list in
	// internal/synth next to TestZooArtifacts, so neither can drift from
	// its verifier.
	var arts []artifact
	for _, s := range mealy.PublishedModels() {
		s := s
		arts = append(arts, artifact{name: s.Name, assoc: s.Assoc, heavy: s.Heavy, spec: &s})
	}
	for _, m := range synth.Family(synth.FamilySeed) {
		m := m
		arts = append(arts, artifact{name: m.Name, assoc: m.Assoc, heavy: m.Heavy, member: &m})
	}
	if *only != "" {
		kept := arts[:0]
		for _, a := range arts {
			if strings.Contains(fmt.Sprintf("%s-%d", a.name, a.assoc), *only) {
				kept = append(kept, a)
			}
		}
		arts = kept
		if len(arts) == 0 {
			fatal(fmt.Errorf("-only %q matches no artifact", *only))
		}
	}

	errs := make([]error, len(arts))
	var wg sync.WaitGroup
	for i, a := range arts {
		wg.Add(1)
		go func(i int, a artifact) {
			defer wg.Done()
			verify := !*quick && (!a.heavy || *verifyHeavy)
			errs[i] = generate(ctx, *out, a, verify, *zoo, algo, *snapshotDir)
		}(i, a)
	}
	wg.Wait()

	failed := false
	for i, err := range errs {
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "genmodels: %s-%d: %v\n", arts[i].name, arts[i].assoc, err)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("genmodels: wrote %d artifacts to %s\n", len(arts), *out)
}

// maxZooDepth caps the conformance-depth escalation of the zoo learning
// cross-check.
const maxZooDepth = 4

// generate extracts (and optionally learns, synthesizes and cross-checks)
// one artifact.
func generate(ctx context.Context, dir string, a artifact, verify, zoo bool, algo learn.Algo, snapshotDir string) error {
	truth, err := mealy.FromPolicy(a.fresh(), 0)
	if err != nil {
		return err
	}
	var learned *mealy.Machine
	if verify {
		if a.spec != nil {
			res, err := core.LearnSimulated(ctx, core.SimRequest{
				Policy:   a.name,
				Assoc:    a.assoc,
				Learn:    learn.Options{Algo: algo, Depth: 1},
				Snapshot: core.SnapshotInDir(snapshotDir, a.name, a.assoc),
			})
			if err != nil {
				return fmt.Errorf("learning: %w", err)
			}
			learned = res.Machine
			if eq, ce := learned.Equivalent(truth); !eq {
				return fmt.Errorf("learned machine differs from the extracted one, ce=%v", ce)
			}
		} else {
			// Zoo members are not in the policy registry: learn them
			// through a registry-free oracle over the generated policy.
			// Adversarial random machines can defeat the paper's depth-1
			// conformance suite (§3.4: learning is only as sound as the
			// test suite), so escalate the depth until the learned machine
			// matches extraction; the oracle memoizes across retries, so a
			// deeper relearn only pays for the new queries.
			oracle := polca.NewOracle(polca.NewSimProber(a.fresh()))
			for depth := 1; ; depth++ {
				res, err := learn.Learn(ctx, oracle, learn.Options{Algo: algo, Depth: depth})
				if err != nil {
					return fmt.Errorf("learning: %w", err)
				}
				learned = res.Machine
				eq, ce := learned.Equivalent(truth)
				if eq {
					break
				}
				if depth >= maxZooDepth {
					return fmt.Errorf("learned machine differs from the extracted one at conformance depth %d, ce=%v", depth, ce)
				}
			}
		}
	}
	if zoo && a.member != nil && a.member.Kind == "rule" && a.assoc == 4 {
		// In-grammar member: re-synthesize a rule program from the learned
		// machine (falling back to the extracted one under -quick) and
		// require the synthesized policy to compile back to the truth.
		src := learned
		if src == nil {
			src = truth
		}
		res, err := synth.Synthesize(src, synth.Options{Seed: 1})
		if err != nil {
			return fmt.Errorf("synthesis: %w", err)
		}
		compiled, err := mealy.FromPolicy(synth.NewRulePolicy(res.Program), 0)
		if err != nil {
			return fmt.Errorf("compiling synthesized program: %w", err)
		}
		if eq, ce := compiled.Equivalent(truth); !eq {
			return fmt.Errorf("synthesized program differs from the generating one, ce=%v", ce)
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", a.name, a.assoc))
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := truth.Save(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genmodels:", err)
	os.Exit(1)
}
