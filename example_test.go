package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExampleNew shows the basic anonymization flow on a small in-memory
// table: prepare an engine over it, then run an algorithm.
func ExampleNew() {
	schema, err := repro.NewSchema(
		repro.Attribute{Name: "age", Role: repro.QuasiIdentifier, Kind: repro.Numeric},
		repro.Attribute{Name: "salary", Role: repro.Confidential, Kind: repro.Numeric},
	)
	if err != nil {
		log.Fatal(err)
	}
	table, err := repro.NewTable(schema)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := table.AppendNumericRow(float64(20+5*i), float64(20000+3000*i)); err != nil {
			log.Fatal(err)
		}
	}
	eng, err := repro.New(table)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.Spec{
		Algorithm: repro.TClosenessFirst, K: 3, T: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", len(res.Clusters))
	fmt.Println("k-anonymity:", res.Privacy.KAnonymity)
	fmt.Println("t-close:", res.MaxEMD <= 0.3)
	// Output:
	// clusters: 4
	// k-anonymity: 3
	// t-close: true
}

// ExampleTCloseness verifies a released table independently of how it was
// produced.
func ExampleTCloseness() {
	eng, err := repro.New(repro.CensusMCD())
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), repro.Spec{
		Algorithm: repro.Merge, K: 5, T: 0.2, SkipAssessment: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	level, err := repro.TCloseness(res.Anonymized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("within requested t:", level <= 0.2)
	// Output:
	// within requested t: true
}

// ExampleParseAlgorithm maps command-line names onto algorithms.
func ExampleParseAlgorithm() {
	alg, err := repro.ParseAlgorithm("tclose-first")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(alg)
	// Output:
	// alg3-tclose-first
}
