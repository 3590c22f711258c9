package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a child process of this binary — the same
// isolation the benchmark driver gives each run — waits for it, and
// parses the result line it printed last.
func child(cfg runConfig, name string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, errors.Join(fmt.Errorf("%s printed no result line", name), runErr)
	}
	return &res, runErr
}

// suiteReport is the suite's output and the shape of a ledger entry.
// Claim stays null: the benchmark measures, it claims no gain.
type suiteReport struct {
	Claim     *string            `json:"claim"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

// suite runs every workload once, each in its own process, and prints
// one JSON document with all their results.
func suite(cfg runConfig, trace int) error {
	rep := suiteReport{Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Workloads: map[string]*result{}}
	var failed error
	for _, s := range specs {
		res, err := child(cfg, s.name, trace)
		if res == nil {
			return err
		}
		failed = errors.Join(failed, err)
		rep.Workloads[s.name] = res
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	return failed
}

// aaRuns is how many runs per workload each A/A set holds, on seeds
// seed, seed+1, ...: the number the benchmark driver uses.
const aaRuns = 10

// selfCheck is the A/A test: two sets of aaRuns untraced runs per
// workload of this same binary on the same seeds. The sets alternate run
// by run, so a slow spell of the host falls on both alike. For every
// workload and end-to-end metric it prints both medians and their
// relative gap, and fails if a gap exceeds the metric's bound, if recall
// differs at all, or if any operation failed.
func selfCheck(cfg runConfig) error {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for k := range sets {
		sets[k] = map[key][]float64{}
	}
	for r := 0; r < aaRuns; r++ {
		c := cfg
		c.seed += uint64(r)
		for _, s := range specs {
			for k := range sets {
				res, err := child(c, s.name, 0)
				if err != nil {
					return err
				}
				if res.Failed != 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", s.name, c.seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[k][key{s.name, name}] = append(sets[k][key{s.name, name}], m.Value)
				}
			}
		}
	}
	var violations int
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "median_1", "median_2", "gap", "bound")
	for _, s := range specs {
		for _, def := range endToEnd {
			a, b := median(sets[0][key{s.name, def.name}]), median(sets[1][key{s.name, def.name}])
			gap := math.Abs(b-a) / math.Min(a, b)
			verdict := ""
			switch {
			case def.name == "recall" && a != b:
				verdict = "  <- must repeat exactly"
			case gap > def.bound:
				verdict = "  <- gap over bound"
			}
			if verdict != "" {
				violations++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %7.2f%% %5.1f%%%s\n", s.name, def.name, a, b, 100*gap, 100*def.bound, verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("A/A check: %d workload x metric pairs outside their bounds", violations)
	}
	fmt.Println("A/A check passed: every gap within its bound")
	return nil
}
