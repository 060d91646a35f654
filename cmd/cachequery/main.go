// Command cachequery is the interactive/batch interface to the simulated
// CPUs, mirroring the paper's tool: pick a CPU model, a cache level and a
// set, then submit MemBlockLang queries and read back hit/miss traces.
//
// Interactive mode (default) provides a REPL:
//
//	$ cachequery -cpu skylake
//	l2_sets/63> @ X _?
//	A B C D X A?  => Miss
//	...
//	l2_sets/63> :set l1 0        (switch target)
//	l1_sets/0> :quit
//
// Batch mode executes queries from the command line:
//
//	$ cachequery -cpu haswell -level L2 -set 63 "@ X _?" "(A B)2 A?"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/cachequery"
	"repro/internal/experiments"
	"repro/internal/hw"
)

func main() {
	cpuName := flag.String("cpu", "skylake", "CPU model: haswell, skylake, kabylake, toy")
	levelName := flag.String("level", "L2", "cache level: L1, L2, L3")
	slice := flag.Int("slice", 0, "cache slice")
	set := flag.Int("set", 0, "cache set")
	seed := flag.Int64("seed", 1, "simulator seed")
	catWays := flag.Int("cat", 0, "virtually reduce L3 associativity via CAT (0 = off)")
	timeout := flag.Duration("timeout", 0, "abort batch queries after this long (0 = no deadline)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg, err := experiments.CPUModel(*cpuName)
	if err != nil {
		fatal(err)
	}
	level, err := hw.ParseLevel(*levelName)
	if err != nil {
		fatal(err)
	}
	cpu := hw.NewCPU(cfg, *seed)
	if *catWays > 0 {
		if err := cpu.SetCATWays(*catWays); err != nil {
			fatal(err)
		}
	}
	front := cachequery.NewFrontend(cpu, cachequery.DefaultBackendOptions())
	tgt := cachequery.Target{Level: level, Slice: *slice, Set: *set}

	if flag.NArg() > 0 {
		for _, src := range flag.Args() {
			if err := runQuery(ctx, front, tgt, src); err != nil {
				fatal(err)
			}
		}
		return
	}
	repl(ctx, front, tgt)
}

func runQuery(ctx context.Context, front *cachequery.Frontend, tgt cachequery.Target, src string) error {
	results, err := front.Query(ctx, tgt, src)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-24s => %s\n", r.Query.String(), r.Pattern())
	}
	return nil
}

func repl(ctx context.Context, front *cachequery.Frontend, tgt cachequery.Target) {
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("%s> ", tgt)
		if !in.Scan() {
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return
		case line == ":stats":
			s := front.Stats()
			fmt.Printf("expanded %d, executed %d, cache hits %d, backend time %v\n",
				s.Expanded, s.Executed, s.CacheHits, s.Duration)
		case strings.HasPrefix(line, ":set "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				fmt.Println("usage: :set <level> <set>  (e.g. :set l2 63)")
				continue
			}
			level, err := hw.ParseLevel(strings.ToUpper(fields[1]))
			if err != nil {
				fmt.Println(err)
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println(err)
				continue
			}
			tgt = cachequery.Target{Level: level, Slice: tgt.Slice, Set: n}
		case strings.HasPrefix(line, ":"):
			fmt.Println("commands: :set <level> <set>, :stats, :quit")
		default:
			if err := runQuery(ctx, front, tgt, line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cachequery:", err)
	os.Exit(1)
}
