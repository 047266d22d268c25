// Command experiments regenerates every table and figure of the
// dissertation's evaluation (Articles 1–3). Running it without flags
// prints the full set; -table selects one artifact.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	table := flag.String("table", "all",
		"artifact to print: all, a1-fig12, a1-table3, a2-fig16, a2-table3, "+
			"a3-fig7, a3-fig8, a3-fig9, a3-table3, inhibitors, "+
			"techniques, setup, summary, csv")
	flag.Parse()

	// Static tables need no simulation.
	switch *table {
	case "techniques":
		experiments.TechniquesTable(os.Stdout)
		return
	case "setup":
		experiments.SystemsSetupTable(os.Stdout)
		return
	case "a1-table3":
		(&experiments.Suite{}).Article1Table3(os.Stdout)
		return
	}

	fmt.Fprintln(os.Stderr, "running the full suite under all five system setups …")
	suite, err := experiments.RunSuite([]experiments.Mode{
		experiments.ModeScalar, experiments.ModeAutoVec, experiments.ModeHand,
		experiments.ModeDSAOrig, experiments.ModeDSAExt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		os.Exit(1)
	}

	out := os.Stdout
	show := func(name string, f func()) {
		if *table == "all" || *table == name {
			f()
			fmt.Fprintln(out)
		}
	}
	show("setup", func() { experiments.SystemsSetupTable(out) })
	show("techniques", func() { experiments.TechniquesTable(out) })
	show("a1-fig12", func() { suite.Article1Fig12(out) })
	show("a1-table3", func() { suite.Article1Table3(out) })
	show("a2-fig16", func() { suite.Article2Fig16(out) })
	show("a2-table3", func() { suite.DetectionLatency(out, experiments.ModeDSAExt) })
	show("a3-fig7", func() { suite.Article3Fig7(out) })
	show("a3-fig8", func() { suite.Article3Fig8(out) })
	show("a3-fig9", func() { suite.Article3Fig9(out) })
	show("a3-table3", func() { suite.Article3Table3(out) })
	show("inhibitors", func() { suite.InhibitorsTable(out) })
	show("summary", func() { suite.Summary(out) })
	show("csv", func() { suite.WriteCSV(out) })
}
