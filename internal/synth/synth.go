// Package synth generates the synthetic evaluation data sets that stand in
// for the two real data sets used in the paper's Section 8, which are not
// redistributable (see DESIGN.md §4 for the substitution rationale):
//
//   - Census: the CASC reference "Census" file (1,080 records) with
//     TAXINC and POTHVAL as quasi-identifiers and FEDTAX (QI↔confidential
//     correlation ≈ 0.52, the "moderately correlated data set", MCD) or
//     FICA (correlation ≈ 0.92, the "highly correlated data set", HCD) as
//     the confidential attribute.
//   - PatientDischarge: the 2010 OSHPD Cedars-Sinai patient discharge file
//     (23,435 records after cleaning) with 7 quasi-identifiers and the
//     hospital charge as confidential attribute (correlation ≈ 0.129).
//
// The generators are deterministic for a given seed and are built from a
// Gaussian latent factor model, so the Pearson correlations between
// quasi-identifiers and confidential attributes — the property that drives
// every phenomenon in the paper's evaluation — are controlled analytically.
// All value scales mimic the originals (incomes in dollars, ages in years)
// but the records are entirely synthetic.
package synth

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// DefaultSeed is the seed used by the package-level convenience
// constructors; fixing it makes every table, benchmark and example in the
// repository reproducible bit-for-bit.
const DefaultSeed = 20160314

// CensusSize is the number of records in the CASC Census data set.
const CensusSize = 1080

// PatientDischargeSize is the number of records in the cleaned Cedars-Sinai
// patient discharge data set.
const PatientDischargeSize = 23435

// Confidential selects which confidential attribute variant of the Census
// data set to generate.
type Confidential int

const (
	// FedTax yields the moderately correlated data set (MCD):
	// QI↔confidential Pearson correlation ≈ 0.52.
	FedTax Confidential = iota
	// Fica yields the highly correlated data set (HCD): correlation ≈ 0.92,
	// the worst case for t-closeness-aware microaggregation.
	Fica
)

// Census generates a Census-like table with n records. The schema has two
// numeric quasi-identifiers, TAXINC and POTHVAL, and one numeric
// confidential attribute, FEDTAX or FICA depending on which.
//
// Construction: TAXINC is the primary income latent; POTHVAL (income of
// *other* household members) is only weakly tied to it (latent correlation
// 0.15), which keeps the quasi-identifier space genuinely two-dimensional —
// the property that lets Algorithm 1's QI-nearest merging escape the
// confidential-attribute ranking instead of snowballing one giant cluster.
// The confidential attribute loads on TAXINC with independent noise. All
// attributes are shifted lognormal transforms of the latents (incomes are
// right-skewed). The loadings are calibrated so the measured Pearson
// correlation between TAXINC and the confidential attribute on the
// lognormal scale is ≈0.52 for FEDTAX and ≈0.92 for FICA — the figures the
// paper quotes for the MCD and HCD data sets (use
// dataset.Table.MaxQIConfidentialCorrelation to check them; the mean over
// both quasi-identifiers is lower because POTHVAL is nearly independent).
func Census(n int, which Confidential, seed int64) *dataset.Table {
	name := "FEDTAX"
	loading := mcdLoading
	if which == Fica {
		name = "FICA"
		loading = hcdLoading
	}
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "TAXINC", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "POTHVAL", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: name, Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	t := dataset.MustTable(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		zt, zp := censusLatents(rng)
		zc := loading*zt + math.Sqrt(1-loading*loading)*rng.NormFloat64()
		taxinc := 8000 + 30000*math.Exp(censusSigma*zt)
		pothval := 1000 + 12000*math.Exp(censusSigma*zp)
		var conf float64
		if which == Fica {
			conf = 300 + 2800*math.Exp(censusSigma*zc)
		} else {
			conf = 500 + 4500*math.Exp(censusSigma*zc)
		}
		// AppendNumericRow only fails on schema mismatch, impossible here.
		_ = t.AppendNumericRow(taxinc, pothval, conf)
	}
	return t
}

// Census generator calibration (see the calibration note in DESIGN.md §4).
// For equal lognormal shapes σ, two lognormals whose Gaussian latents
// correlate at ρ have Pearson correlation (e^{ρσ²}-1)/(e^{σ²}-1); the
// loadings below invert that relation for the targets 0.52 and 0.92 at
// σ = 0.6: ρ = ln(1 + target·(e^{σ²}-1))/σ².
const (
	qiCorr      = 0.15
	censusSigma = 0.6
	mcdLoading  = 0.5645
	hcdLoading  = 0.9320
)

// censusLatents draws the standardized quasi-identifier latents.
func censusLatents(rng *rand.Rand) (zt, zp float64) {
	u1 := rng.NormFloat64()
	u2 := rng.NormFloat64()
	zt = u1
	zp = qiCorr*u1 + math.Sqrt(1-qiCorr*qiCorr)*u2
	return zt, zp
}

// CensusMCD returns the 1,080-record moderately correlated Census data set
// with the default seed.
func CensusMCD() *dataset.Table { return Census(CensusSize, FedTax, DefaultSeed) }

// CensusHCD returns the 1,080-record highly correlated Census data set with
// the default seed.
func CensusHCD() *dataset.Table { return Census(CensusSize, Fica, DefaultSeed) }

// PatientDischarge generates a patient-discharge-like table with n records:
// seven quasi-identifiers of mixed scales (age, zip code, admission day,
// length of stay, severity, sex, ward) and one heavy-tailed confidential
// attribute (total charge) that is weakly correlated with the
// quasi-identifiers (mean absolute Pearson correlation ≈ 0.13, dominated by
// length of stay and severity, matching the 0.129 the paper reports).
func PatientDischarge(n int, seed int64) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "AGE", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "ZIP", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "ADMIT_DAY", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "STAY_DAYS", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "SEVERITY", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "SEX", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "WARD", Role: dataset.QuasiIdentifier, Kind: dataset.Numeric},
		dataset.Attribute{Name: "CHARGE", Role: dataset.Confidential, Kind: dataset.Numeric},
	)
	t := dataset.MustTable(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		age := clamp(math.Round(52+21*rng.NormFloat64()), 0, 100)
		zip := math.Floor(90001 + 3000*rng.Float64())
		admit := math.Floor(1 + 365*rng.Float64())
		stayLatent := rng.NormFloat64()
		stay := math.Max(1, math.Round(math.Exp(1.1+0.7*stayLatent)))
		sevLatent := 0.35*stayLatent + math.Sqrt(1-0.35*0.35)*rng.NormFloat64()
		severity := severityLevel(sevLatent)
		sex := float64(rng.Intn(2))
		ward := float64(1 + rng.Intn(8))
		// Charge: driven by stay and severity plus a heavy lognormal tail,
		// giving a weak overall QI↔confidential correlation.
		noise := math.Exp(0.9 * rng.NormFloat64())
		charge := 4000 + 2600*stay + 3500*severity + 9000*noise
		_ = t.AppendNumericRow(age, zip, admit, stay, severity, sex, ward, charge)
	}
	return t
}

func severityLevel(z float64) float64 {
	switch {
	case z < -1.0:
		return 1
	case z < -0.2:
		return 2
	case z < 0.6:
		return 3
	case z < 1.4:
		return 4
	default:
		return 5
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Uniform generates a small featureless table with qi quasi-identifier
// columns drawn uniformly from [0,1) and one uniform confidential column.
// It is used by tests, examples and property checks that need arbitrary
// well-formed microdata without the Census structure.
func Uniform(n, qi int, seed int64) *dataset.Table {
	attrs := make([]dataset.Attribute, 0, qi+1)
	for i := 0; i < qi; i++ {
		attrs = append(attrs, dataset.Attribute{
			Name: "QI" + string(rune('A'+i)), Role: dataset.QuasiIdentifier, Kind: dataset.Numeric,
		})
	}
	attrs = append(attrs, dataset.Attribute{
		Name: "SECRET", Role: dataset.Confidential, Kind: dataset.Numeric,
	})
	t := dataset.MustTable(dataset.MustSchema(attrs...))
	rng := rand.New(rand.NewSource(seed))
	row := make([]float64, qi+1)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Float64()
		}
		_ = t.AppendNumericRow(row...)
	}
	return t
}
