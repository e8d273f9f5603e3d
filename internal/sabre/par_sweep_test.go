package sabre

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/micro"
	"repro/internal/synth"
	"repro/internal/tclose"
)

// TestRedistributeWorkerCountInvariant pins SABRE's parallel determinism
// contract: the bucket draws of one equivalence class are sharded across
// the matrix worker budget, and the resulting classes must be bit-identical
// to the serial run at every worker count — including on a duplicate-heavy
// table where every distance and bucket boundary ties.
func TestRedistributeWorkerCountInvariant(t *testing.T) {
	old := sabreDrawParMinRows
	sabreDrawParMinRows = 1
	t.Cleanup(func() { sabreDrawParMinRows = old })

	dupSchema := dataset.MustSchema(
		dataset.Attribute{Name: "A", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "B", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "S", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	dup := dataset.MustTable(dupSchema)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		_ = dup.AppendNumericRow(float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(4)))
	}
	tables := []struct {
		name string
		tbl  *dataset.Table
	}{
		{"census", synth.Census(180, synth.FedTax, 13)},
		{"patients", synth.PatientDischarge(200, 29)},
		{"duplicates", dup},
	}
	for _, tc := range tables {
		for _, k := range []int{2, 4} {
			for _, tl := range []float64{0.08, 0.25} {
				run := func(workers int) *Result {
					p, err := tclose.Prepare(tc.tbl)
					if err != nil {
						t.Fatal(err)
					}
					p.Matrix().SetTuning(micro.Tuning{Workers: workers})
					res, err := AnonymizeCtx(context.Background(), tc.tbl, p.Matrix(), p.ConfOrder(), k, tl)
					if err != nil {
						t.Fatalf("%s k=%d t=%v workers=%d: %v", tc.name, k, tl, workers, err)
					}
					return res
				}
				want := run(1)
				for _, w := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
					got := run(w)
					if !reflect.DeepEqual(got.Clusters, want.Clusters) {
						t.Fatalf("%s k=%d t=%v: classes at workers=%d diverge from serial",
							tc.name, k, tl, w)
					}
					if got.MaxEMD != want.MaxEMD || got.Buckets != want.Buckets || got.ECSize != want.ECSize {
						t.Fatalf("%s k=%d t=%v workers=%d: diagnostics diverge", tc.name, k, tl, w)
					}
				}
			}
		}
	}
}
