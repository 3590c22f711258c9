// Command bench is the repository's serving benchmark: five workloads
// that drive the serving stack from outside through public functions
// only, report end-to-end verdict cost and latency, attribute them to
// layers in a traced run, and check every verdict against a plain single
// engine. See README.md for the workloads and the run protocol, and
// BENCHMARK.json at the repository root for the contract.
//
// Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload batch_warm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: the whole suite, one child process each)")
		seed     = flag.Uint64("seed", 1, "traffic seed: the same seed generates the same transactions")
		seconds  = flag.Int("seconds", 20, "timed seconds per run, split into five slices")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end run")
		aa       = flag.Bool("aa", false, "A/A self-check: two alternating sets of ten runs per workload on the same seeds, gaps held against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}

	var err error
	switch {
	case *aa:
		err = selfCheck(cfg)
	case *workload == "":
		err = suite(cfg, *trace)
	default:
		err = single(cfg, *workload, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// single runs one workload in this process and prints its result line.
// A run whose verdicts differ from the single-engine reference prints
// the line (correct=false) and then fails.
func single(cfg runConfig, name string, trace int) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	run := runUntraced
	if trace == 1 {
		run = runTraced
	}
	res, err := run(cfg, s, os.Stderr)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: verdicts differ from the single-engine reference", name)
	}
	return nil
}
