// Command titant-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	titant-exp [-exp all|table1|table2|fig9|fig10|fig11|fig12]
//	           [-users N] [-days N] [-seed N] [-quick]
//
// Every experiment prints a paper-style text rendering. A recorded
// reference run and its paper-vs-measured discussion are ROADMAP item 2,
// not yet written; no ordering between the methods is claimed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"titant/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "experiment: all, table1, table2, fig9, fig10, fig11, fig12")
	users := flag.Int("users", 0, "override population size")
	days := flag.Int("days", 0, "override number of test days (table1)")
	seed := flag.Uint64("seed", 0, "override world seed")
	quick := flag.Bool("quick", false, "use the reduced quick configuration")
	flag.Parse()

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *users > 0 {
		cfg.World.Users = *users
	}
	if *days > 0 {
		cfg.Days = *days
	}
	if *seed > 0 {
		cfg.World.Seed = *seed
	}

	run := func(name string, fn func() (interface{ Render() string }, error)) {
		if *which != "all" && *which != name {
			return
		}
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "titant-exp: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
	}

	run("table1", func() (interface{ Render() string }, error) { return exp.RunTable1(cfg) })
	run("table2", func() (interface{ Render() string }, error) { return exp.RunTable2(cfg, nil) })
	run("fig9", func() (interface{ Render() string }, error) { return exp.RunFigure9(cfg) })
	run("fig10", func() (interface{ Render() string }, error) { return exp.RunFigure10(cfg) })
	run("fig11", func() (interface{ Render() string }, error) { return exp.RunFigure11(cfg, nil) })
	run("fig12", func() (interface{ Render() string }, error) { return exp.RunFigure12(cfg, nil) })

	if !strings.Contains("all table1 table2 fig9 fig10 fig11 fig12", *which) {
		fmt.Fprintf(os.Stderr, "titant-exp: unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
