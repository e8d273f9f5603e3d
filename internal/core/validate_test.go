package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/generalization"
	"repro/internal/sabre"
	"repro/internal/synth"
	"repro/internal/tclose"
)

// TestValidateSpecDomains pins the typed sentinel each algorithm's
// parameter domain maps to, for both the exported admission-time check and
// the engine run itself.
func TestValidateSpecDomains(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"merge k=0", Spec{Algorithm: Merge, K: 0, T: 0.2}, tclose.ErrBadK},
		{"alg2 t=0", Spec{Algorithm: KAnonymityFirst, K: 3, T: 0}, tclose.ErrBadT},
		{"alg3 t>1", Spec{Algorithm: TClosenessFirst, K: 3, T: 1.5}, tclose.ErrBadT},
		{"mondrian k=0", Spec{Algorithm: MondrianBaseline, K: 0, T: 0.2}, generalization.ErrBadK},
		{"incognito k=0", Spec{Algorithm: IncognitoBaseline, K: 0, T: 0.2}, generalization.ErrBadK},
		{"sabre k=0", Spec{Algorithm: SABREBaseline, K: 0, T: 0.2}, sabre.ErrBadK},
		{"sabre t=0", Spec{Algorithm: SABREBaseline, K: 3, T: 0}, sabre.ErrBadT},
		{"sabre t>1", Spec{Algorithm: SABREBaseline, K: 3, T: 2}, sabre.ErrBadT},
		{"unknown algorithm", Spec{Algorithm: Algorithm(99), K: 3, T: 0.2}, ErrUnknownAlgorithm},
		{"negative algorithm", Spec{Algorithm: Algorithm(-1), K: 3, T: 0.2}, ErrUnknownAlgorithm},
		{"sharded alg3", Spec{Algorithm: TClosenessFirst, K: 3, T: 0.2, Sharded: true}, ErrShardedUnsupported},
		{"sharded mondrian", Spec{Algorithm: MondrianBaseline, K: 3, T: 0.2, Sharded: true}, ErrShardedUnsupported},
		{"sharded sabre", Spec{Algorithm: SABREBaseline, K: 3, T: 0.2, Sharded: true}, ErrShardedUnsupported},
		{"sharded incognito", Spec{Algorithm: IncognitoBaseline, K: 3, T: 0.2, Sharded: true}, ErrShardedUnsupported},
		// Parameter domains are checked before the sharded gate, same order
		// the run would fail in.
		{"sharded alg2 k=0", Spec{Algorithm: KAnonymityFirst, K: 0, T: 0.2, Sharded: true}, tclose.ErrBadK},
	}
	for _, tc := range cases {
		if err := ValidateSpec(tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: ValidateSpec = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Valid specs across the whole set pass.
	for _, alg := range []Algorithm{Merge, KAnonymityFirst, TClosenessFirst,
		MondrianBaseline, SABREBaseline, IncognitoBaseline} {
		if err := ValidateSpec(Spec{Algorithm: alg, K: 3, T: 0.2}); err != nil {
			t.Errorf("%v: valid spec rejected: %v", alg, err)
		}
	}

	// Sharded is valid exactly for the two algorithms with a shard driver.
	for _, alg := range []Algorithm{Merge, KAnonymityFirst} {
		if err := ValidateSpec(Spec{Algorithm: alg, K: 3, T: 0.2, Sharded: true}); err != nil {
			t.Errorf("%v: valid sharded spec rejected: %v", alg, err)
		}
	}

	// Engine.Run returns the same sentinels without running anything.
	eng, err := NewEngine(synth.Census(60, synth.FedTax, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, err := eng.Run(context.Background(), tc.spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: Run = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Mondrian and Incognito accept any t: only k is constrained.
	for _, alg := range []Algorithm{MondrianBaseline, IncognitoBaseline} {
		for _, tt := range []float64{0, -1, 7} {
			if err := ValidateSpec(Spec{Algorithm: alg, K: 2, T: tt}); err != nil {
				t.Errorf("%v t=%v: baseline t domain should be unconstrained, got %v", alg, tt, err)
			}
		}
	}
}
