package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// catTable builds a small deterministic table with numeric quasi-identifiers
// and a categorical confidential attribute, the shape the Append label
// paths care about.
func catTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema, err := dataset.NewSchema(
		dataset.Attribute{Name: "age", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "zip", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "disease", Role: dataset.Confidential, Kind: dataset.Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"flu", "asthma", "ulcer", "cold"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(float64(20+i%37), float64(1000+7*i%400), labels[i%len(labels)]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestEngineAppendArityAndKindErrors pins the typed sentinels of the two
// malformed-batch paths — wrong row width and wrong value kind — and that
// a failed batch is all-or-nothing even when its first rows were valid.
func TestEngineAppendArityAndKindErrors(t *testing.T) {
	tbl := catTable(t, 40)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}

	// Short row, long row.
	if err := eng.Append([]any{21.0, 1200.0}); !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("short row: err = %v, want ErrRowWidth", err)
	}
	if err := eng.Append([]any{21.0, 1200.0, "flu", "extra"}); !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("long row: err = %v, want ErrRowWidth", err)
	}
	// Kind mismatches: number where the categorical confidential wants a
	// string, string where a numeric QI wants a number, unsupported type.
	if err := eng.Append([]any{21.0, 1200.0, 3.0}); !errors.Is(err, dataset.ErrKindMismatch) {
		t.Fatalf("numeric label: err = %v, want ErrKindMismatch", err)
	}
	if err := eng.Append([]any{"old", 1200.0, "flu"}); !errors.Is(err, dataset.ErrKindMismatch) {
		t.Fatalf("string age: err = %v, want ErrKindMismatch", err)
	}
	if err := eng.Append([]any{21.0, 1200.0, []byte("flu")}); !errors.Is(err, dataset.ErrKindMismatch) {
		t.Fatalf("byte-slice label: err = %v, want ErrKindMismatch", err)
	}
	// A batch whose first row is fine and second is malformed must not
	// ingest the first row.
	err = eng.Append(
		[]any{33.0, 1100.0, "flu"},
		[]any{34.0, 1100.0},
	)
	if !errors.Is(err, dataset.ErrRowWidth) {
		t.Fatalf("mixed batch: err = %v, want ErrRowWidth", err)
	}
	if eng.Epoch() != 0 || eng.Len() != 40 {
		t.Fatalf("failed appends changed state: epoch=%d len=%d", eng.Epoch(), eng.Len())
	}
	// The engine still runs, bit-identical to a cold engine over the
	// untouched table.
	spec := Spec{Algorithm: TClosenessFirst, K: 2, T: 0.3, SkipAssessment: true}
	res, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runFresh(tbl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hashPartition(res) != hashPartition(cold) {
		t.Fatal("engine partition drifted after failed appends")
	}
}

// TestEngineAppendUnknownLabelExtendsDomain: a label never seen at prepare
// time is not an error — it opens a new confidential bin, and post-append
// runs stay bit-identical to a cold engine over the concatenated table
// (the nominal EMD space gains the bin incrementally).
func TestEngineAppendUnknownLabelExtendsDomain(t *testing.T) {
	tbl := catTable(t, 40)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]any{
		{55.0, 1399.0, "shingles"}, // label unknown to the prepared dict
		{56.0, 1398.0, "flu"},
		{23.0, 1001.0, "shingles"},
	}
	if err := eng.Append(rows...); err != nil {
		t.Fatalf("unknown label append should succeed, got %v", err)
	}
	if eng.Epoch() != 1 || eng.Len() != 43 {
		t.Fatalf("append state: epoch=%d len=%d, want 1/43", eng.Epoch(), eng.Len())
	}
	coldTbl := catTable(t, 40)
	for _, r := range rows {
		if err := coldTbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	spec := Spec{Algorithm: TClosenessFirst, K: 2, T: 0.3, SkipAssessment: true}
	got, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runFresh(coldTbl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if hashPartition(got) != hashPartition(want) {
		t.Fatal("post-append partition differs from cold engine over concatenated table")
	}
	if hashOutput(got.Anonymized) != hashOutput(want.Anonymized) {
		t.Fatal("post-append release differs from cold engine over concatenated table")
	}
}

// TestEngineAppendRacesCancelledRun overlaps Append with an in-flight run
// that gets cancelled mid-partition: the run must return ctx.Err() (it
// keeps its epoch snapshot), the append must succeed, and the engine must
// stay consistent for a follow-up run. CI runs this package under -race,
// making this the race probe of the epoch-swap path.
func TestEngineAppendRacesCancelledRun(t *testing.T) {
	tbl := synth.PatientDischarge(4000, synth.DefaultSeed)
	eng, err := NewEngine(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, runErr = eng.Run(ctx, Spec{Algorithm: KAnonymityFirst, K: 2, T: 0.02, SkipAssessment: true})
	}()
	// Let the run get into its partition loop, append concurrently, then
	// cancel while the appends are still landing.
	time.Sleep(10 * time.Millisecond)
	var appendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// age, zip, admit day, stay, severity, sex, ward, charge.
		for i := 0; i < 5 && appendErr == nil; i++ {
			appendErr = eng.Append([]any{30.0, 90210.0, float64(1 + i%7), 2.0, 1.0, 1.0, 3.0, 15000.0})
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want nil or context.Canceled", runErr)
	}
	if appendErr != nil {
		t.Fatalf("append racing cancelled run failed: %v", appendErr)
	}
	if eng.Epoch() != 5 || eng.Len() != 4005 {
		t.Fatalf("append state: epoch=%d len=%d, want 5/4005", eng.Epoch(), eng.Len())
	}
	// The engine is fully usable afterwards, whatever the race outcome.
	if _, err := eng.Run(context.Background(), Spec{Algorithm: TClosenessFirst, K: 3, T: 0.3, SkipAssessment: true}); err != nil {
		t.Fatalf("engine unusable after append/cancel race: %v", err)
	}
}
