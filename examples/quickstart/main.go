// Command quickstart is the smallest end-to-end use of the library: build a
// microdata table in code, prepare an anonymization engine over it, run the
// t-closeness-first algorithm (the paper's Algorithm 3, its best performer),
// and inspect the release and its privacy report.
//
// The engine (repro.New) is the one way to run an algorithm: it prepares
// the shared substrate once, so running more parameter points — or
// re-running after appending freshly arrived records — costs only the
// algorithm itself.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	// 1. Describe the data: which columns identify people (to drop), which
	//    could re-identify them in combination (to perturb), and which are
	//    sensitive (to protect with t-closeness).
	schema, err := repro.NewSchema(
		repro.Attribute{Name: "name", Role: repro.Identifier, Kind: repro.Categorical},
		repro.Attribute{Name: "age", Role: repro.QuasiIdentifier, Kind: repro.Numeric},
		repro.Attribute{Name: "zip", Role: repro.QuasiIdentifier, Kind: repro.Numeric},
		repro.Attribute{Name: "salary", Role: repro.Confidential, Kind: repro.Numeric},
	)
	if err != nil {
		log.Fatal(err)
	}
	table, err := repro.NewTable(schema)
	if err != nil {
		log.Fatal(err)
	}
	people := []struct {
		name string
		age  float64
		zip  float64
		pay  float64
	}{
		{"ana", 29, 43001, 21000}, {"bo", 31, 43002, 29000},
		{"cai", 34, 43001, 25000}, {"dia", 38, 43003, 31000},
		{"eli", 41, 43002, 40000}, {"fay", 45, 43004, 38000},
		{"gus", 47, 43001, 45000}, {"hal", 52, 43003, 52000},
		{"ivy", 55, 43002, 48000}, {"jon", 58, 43004, 61000},
		{"kim", 61, 43001, 57000}, {"lou", 64, 43003, 70000},
	}
	for _, p := range people {
		if err := table.AppendRow(p.name, p.age, p.zip, p.pay); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Prepare the engine once, then anonymize: hide every subject among
	//    k=3 records and keep each group's salary distribution within EMD
	//    t=0.3 of the global one. The context cancels long runs cooperatively
	//    (useful with larger tables and tighter parameters).
	eng, err := repro.New(table)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.Spec{
		Algorithm: repro.TClosenessFirst,
		K:         3,
		T:         0.3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the outcome.
	fmt.Printf("clusters: %d (sizes min %d / avg %.1f)\n",
		len(res.Clusters), res.Sizes.Min, res.Sizes.Avg)
	fmt.Printf("achieved t-closeness: %.4f (requested %.2f)\n", res.MaxEMD, 0.3)
	fmt.Printf("privacy report: k-anonymity=%d, l-diversity=%d\n",
		res.Privacy.KAnonymity, res.Privacy.LDiversity)
	fmt.Printf("utility loss (normalized SSE): %.5f\n\n", res.SSE)

	// 4. The release: identifiers blanked, quasi-identifiers aggregated,
	//    salaries untouched. WriteCSV emits the self-describing CSV format.
	fmt.Println("anonymized release:")
	if err := res.Anonymized.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 5. Streaming ingest: new records append as a table epoch — the engine
	//    extends its prepared state incrementally instead of rebuilding —
	//    and the next Run covers everyone, exactly as if the engine had been
	//    built over the full table from the start.
	if err := eng.Append(
		[]any{"mia", 27.0, 43002.0, 23000.0},
		[]any{"ned", 66.0, 43004.0, 74000.0},
	); err != nil {
		log.Fatal(err)
	}
	res, err = eng.Run(context.Background(), repro.Spec{
		Algorithm: repro.TClosenessFirst, K: 3, T: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter appending 2 records (epoch %d, n=%d): %d clusters, t=%.4f\n",
		eng.Epoch(), eng.Len(), len(res.Clusters), res.MaxEMD)
}
