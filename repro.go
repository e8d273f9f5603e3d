// Package repro is the public facade of the t-closeness-through-
// microaggregation library, a from-scratch Go reproduction of
//
//	J. Soria-Comas, J. Domingo-Ferrer, D. Sánchez, S. Martínez,
//	"t-Closeness through Microaggregation: Strict Privacy with Enhanced
//	Utility Preservation", IEEE TKDE (arXiv:1512.02909).
//
// The facade re-exports the user-facing pieces of the internal packages:
//
//   - describing microdata (Schema, Attribute, Table, CSV I/O),
//   - preparing a reusable anonymization engine over a table (New) and
//     running any of the paper's algorithms or the comparison baselines
//     against it (Engine.Run, Spec), with context cancellation, engine-
//     scoped tuning options, and epoch-based ingest (Engine.Append,
//     Engine.Delete) with warm-start re-anonymization (Spec.Warm),
//   - verifying the released table's privacy level (Assess, KAnonymity,
//     TCloseness), and
//   - quantifying utility (NormalizedSSE).
//
// See ARCHITECTURE.md at the repository root for the package map, the
// determinism contract, and the full epoch lifecycle.
//
// # Lifecycle quickstart
//
// An engine lives through epochs: build once, run, ingest, re-run warm.
//
//	table := repro.CensusMCD() // or dataset built via NewTable/ReadCSV
//	eng, err := repro.New(table)
//
//	// Epoch 0: the initial release.
//	spec := repro.Spec{Algorithm: repro.TClosenessFirst, K: 5, T: 0.15, Warm: true}
//	res, err := eng.Run(ctx, spec)
//	// res.Anonymized is the k-anonymous t-close release. With Spec.Warm
//	// set, this first run also seeds the engine's warm cache.
//
//	// Epoch 1: a late batch arrives; epoch 2: records are retracted.
//	err = eng.Append(rows...)        // row values, one []any per record
//	err = eng.Delete(17, 63)         // current row ids; tombstone epoch
//
//	// Re-release: the warm run repairs the cached partition around the
//	// delta instead of partitioning from scratch — re-run cost tracks the
//	// delta, not the table. res.Warm reports the seed epoch and repair
//	// scope; privacy guarantees are identical to a cold run.
//	res, err = eng.Run(ctx, spec)
//
// The engine prepares the shared substrate — normalized quasi-identifier
// geometry, the EMD dataset-prefix spaces, a lazily built spatial index —
// once per epoch, so a parameter sweep pays for it a single time:
//
//	for _, k := range []int{2, 5, 10} {
//		for _, t := range []float64{0.05, 0.15, 0.25} {
//			res, err := eng.Run(ctx, repro.Spec{
//				Algorithm: repro.TClosenessFirst, K: k, T: t,
//			})
//			// ...
//		}
//	}
//
// Runs are safe to issue concurrently and cancel promptly when ctx does.
// Append opens a new table epoch whose runs are bit-identical to a fresh
// engine over the concatenated table; Delete opens a tombstone epoch whose
// runs are bit-identical to a fresh engine over the filtered table. Warm
// runs that find no usable seed fall back to a cold run transparently.
//
// # Parallel determinism contract
//
// The partition loops themselves are sharded: merge partner scans, swap
// candidate scoring, Algorithm 3's per-subset draws, SABRE's per-bucket
// draws and the candidate distance fills all fan out across the engine's
// worker budget (WithWorkers, defaulting to GOMAXPROCS). Parallelism never
// changes results — every shard owns disjoint state or a fixed result
// slot, and every reduction is order-stable on the same (distance, row) or
// (cost, index) tie keys the serial scans use — so partitions and releases
// are bit-identical at every worker count. The contract is pinned by
// worker-sweep property tests and a golden conformance fixture
// (internal/core/testdata); WithWorkers is therefore purely a throughput
// knob, safe to tune per deployment.
//
// Spec.Sharded opts a Merge or KAnonymityFirst run out of that contract in
// exchange for parallel cluster construction: the table splits into
// disjoint k-d shards, each shard builds clusters independently, and a
// reconciliation pass repairs k/t violations along the boundaries. The
// release still satisfies k and t exactly and is deterministic for a fixed
// worker budget, but different budgets produce different (equally valid)
// partitions, and the warm seed cache is bypassed. Choose sharded mode for
// large one-off anonymizations on multi-core hosts where wall-clock
// dominates; keep the default when releases must be reproducible across
// deployments with different worker settings, when runs are re-issued
// across epochs (warm mode is the bigger win there), or when utility must
// match the serial reference bit for bit.
//
// # Persistence
//
// Engines can be backed by a persistent columnar store so million-row
// tables load once, reopen without re-parsing CSV, and every Append/
// Delete epoch survives a process restart:
//
//	st, err := repro.FileStore("/var/lib/tcm")   // embedded, single file per dataset
//
//	// First boot: stream a large CSV straight into the store under a
//	// bounded memory budget (the table is never materialized), or
//	// snapshot a table you already hold with repro.Create.
//	stats, err := repro.IngestCSV(st, "patients", csvReader, 0)
//
//	eng, err := repro.Open(st, "patients")       // stream chunks into the table, prepare once
//	res, err := eng.Run(ctx, spec)
//
//	// Epochs on an opened engine write through: each Append/Delete is
//	// durable (fsynced, checksummed) before it becomes visible to runs.
//	err = eng.Append(rows...)
//
//	// After a crash or restart: Open restores the same table (bit for
//	// bit — verify with repro.TableHash) and the same epoch counter, so
//	// releases are byte-identical to the pre-restart engine's.
//	eng, err = repro.Open(st, "patients")
//
// The store is an implementation of the append-only block-log format
// documented in internal/store (columnar segments, dictionary pages,
// checksummed commit manifests); a torn tail from a crash rolls back to
// the last committed epoch on reopen. Engines without a store behave
// exactly as before — the in-memory path stays the hot path.
//
// # Serving
//
// For long-lived deployments the library ships as a service: cmd/tcserved
// exposes dataset registration, asynchronous anonymization jobs over
// prepared engines, epoch appends and deletes (warm re-anonymization by
// default, cold=true per job opts out), and ops endpoints (/healthz,
// /metrics) over HTTP. The serving layer (internal/serve) adds the robustness the
// library deliberately leaves to callers — worker panics are captured by
// internal/par and surface as one failed job rather than a dead process,
// every job runs under a deadline, a bounded queue sheds overload with
// 429 + Retry-After, transient failures retry with backoff, results are
// cached per (dataset epoch, spec), and SIGTERM drains in-flight jobs
// before exit. Its failure semantics are pinned by a fault-injection
// conformance suite (internal/serve/faultinject); see cmd/tcserved/README.md
// for the job API and the shutdown contract.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/micro"
	"repro/internal/privacy"
	"repro/internal/risk"
	"repro/internal/store"
	"repro/internal/synth"
)

// Re-exported dataset types. See package dataset for details.
type (
	// Table is a columnar microdata set.
	Table = dataset.Table
	// Schema is an ordered list of attributes with roles.
	Schema = dataset.Schema
	// Attribute describes one column (name, role, kind).
	Attribute = dataset.Attribute
	// Role classifies an attribute's disclosiveness.
	Role = dataset.Role
	// Kind is an attribute's value domain (numeric or categorical).
	Kind = dataset.Kind
)

// Attribute roles.
const (
	Identifier      = dataset.Identifier
	QuasiIdentifier = dataset.QuasiIdentifier
	Confidential    = dataset.Confidential
	NonConfidential = dataset.NonConfidential
)

// Attribute kinds.
const (
	Numeric     = dataset.Numeric
	Categorical = dataset.Categorical
)

// NewSchema builds a Schema from attributes; see dataset.NewSchema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return dataset.NewSchema(attrs...) }

// NewTable creates an empty table over a schema; see dataset.NewTable.
func NewTable(schema *Schema) (*Table, error) { return dataset.NewTable(schema) }

// ReadCSV decodes a table from the self-describing two-header CSV format;
// see dataset.ReadCSV.
func ReadCSV(r io.Reader) (*Table, error) { return dataset.ReadCSV(r) }

// Anonymization configuration and result types. See package core.
type (
	// Engine is a prepared, reusable anonymization session over one table:
	// the substrate is built once by New and shared by every Run. Safe for
	// concurrent Runs and Append.
	Engine = core.Engine
	// Spec parameterizes one Engine.Run (algorithm, k, t).
	Spec = core.Spec
	// Option configures an Engine at construction; see WithWorkers and
	// WithProgress.
	Option = core.Option
	// Progress is one progress event delivered to a WithProgress hook.
	Progress = core.Progress
	// Result is an anonymization outcome: the released table plus privacy
	// and utility diagnostics.
	Result = core.Result
	// WarmStats describes how a warm-start run (Spec.Warm) was seeded and
	// how much local repair it did; Result.Warm is nil for cold runs.
	WarmStats = core.WarmStats
	// Algorithm selects which of the paper's methods to run.
	Algorithm = core.Algorithm
	// Cluster is a group of record indices sharing aggregated
	// quasi-identifiers.
	Cluster = micro.Cluster
)

// New prepares a reusable anonymization engine over a private copy of the
// table; see core.NewEngine. Use Engine.Run to execute algorithms against
// it and Engine.Append to ingest new records in epochs.
func New(t *Table, opts ...Option) (*Engine, error) { return core.NewEngine(t, opts...) }

// Engine construction options; see the core package for details.
var (
	// WithWorkers caps the engine's goroutine fan-out for distance scans,
	// index builds and the partition loops.
	WithWorkers = core.WithWorkers
	// WithProgress installs a hook receiving coarse progress events from
	// the partition and merge loops.
	WithProgress = core.WithProgress
)

// Anonymization algorithms.
const (
	// Merge is the paper's Algorithm 1 (microaggregation + cluster merging).
	Merge = core.Merge
	// KAnonymityFirst is the paper's Algorithm 2 (swap refinement + merge).
	KAnonymityFirst = core.KAnonymityFirst
	// TClosenessFirst is the paper's Algorithm 3 (t-closeness by
	// construction; best utility and speed).
	TClosenessFirst = core.TClosenessFirst
	// MondrianBaseline is the generalization/recoding comparison baseline.
	MondrianBaseline = core.MondrianBaseline
)

// Persistent dataset storage; see the Persistence section of the package
// documentation and the internal/store package for the file format and
// crash-safety contract.
type (
	// Store is a persistent columnar dataset backend with durable epoch
	// history.
	Store = store.Backend
	// IngestStats reports what a streaming CSV ingest did, including the
	// chunk buffer's high-water mark (the memory-budget contract).
	IngestStats = store.IngestStats
)

// FileStore opens (creating if needed) the embedded persistent store
// rooted at dir: one append-only checksummed file per dataset.
func FileStore(dir string) (Store, error) { return store.NewFileBackend(dir) }

// Open rebuilds a stored dataset from its committed history and prepares
// an engine over it once, with its epoch counter restored; Append/Delete
// on the opened engine persist durably before becoming visible. See
// core.Open.
func Open(s Store, name string, opts ...Option) (*Engine, error) { return core.Open(s, name, opts...) }

// Create snapshots a table into the store under name and opens an engine
// over it; see core.Create.
func Create(s Store, name string, t *Table, opts ...Option) (*Engine, error) {
	return core.Create(s, name, t, opts...)
}

// IngestCSV bulk-loads a two-header CSV stream into the store as a new
// dataset without materializing the table, flushing columnar chunks
// whenever the buffer would exceed budget bytes (a default budget when
// budget <= 0). The result is bit-identical to ReadCSV + Create.
func IngestCSV(s Store, name string, r io.Reader, budget int) (IngestStats, error) {
	return store.IngestCSV(s, name, r, budget)
}

// TableHash returns a hex SHA-256 fingerprint of a table's full logical
// content (schema, dictionaries, exact value bits) — equal hashes mean
// bit-identical tables, the check the restart conformance relies on.
func TableHash(t *Table) string { return store.TableHash(t) }

// ParseAlgorithm resolves a command-line algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// PrivacyReport summarizes the privacy level of a released table.
type PrivacyReport = privacy.Report

// Assess computes the privacy report of a released table; see
// privacy.Assess.
func Assess(t *Table) (*PrivacyReport, error) { return privacy.Assess(t) }

// KAnonymity returns the k-anonymity level of a released table.
func KAnonymity(t *Table) (int, error) { return privacy.KAnonymity(t) }

// TCloseness returns the t-closeness level (worst-class EMD) of a released
// table.
func TCloseness(t *Table) (float64, error) { return privacy.TCloseness(t) }

// NormalizedSSE computes the paper's Eq. (5) utility loss between an
// original table and its anonymized release.
func NormalizedSSE(original, anonymized *Table) (float64, error) {
	return metrics.NormalizedSSE(original, anonymized)
}

// Synthetic evaluation data sets (deterministic; see package synth for how
// they substitute the paper's data).
var (
	// CensusMCD returns the 1,080-record moderately correlated Census-like
	// data set (QI↔confidential correlation ≈ 0.52).
	CensusMCD = synth.CensusMCD
	// CensusHCD returns the 1,080-record highly correlated Census-like data
	// set (correlation ≈ 0.92).
	CensusHCD = synth.CensusHCD
	// PatientDischarge returns an n-record patient-discharge-like data set
	// with 7 quasi-identifiers and weak correlation (≈ 0.13).
	PatientDischarge = synth.PatientDischarge
)

// AnatomyRelease produces the QI-preserving release style of Section 2.3:
// original quasi-identifier values are kept and the confidential values are
// permuted within each cluster, breaking the QI↔confidential link while
// losing no quasi-identifier information; see micro.AnatomyRelease.
func AnatomyRelease(t *Table, clusters []Cluster, seed int64) (*Table, error) {
	return micro.AnatomyRelease(t, clusters, seed)
}

// NTCloseness returns the (n,t)-closeness level of a partition — the
// relaxed model of Li et al. that compares each class against its n-record
// quasi-identifier neighborhood instead of the whole table; see
// privacy.NTClosenessOf.
func NTCloseness(t *Table, clusters []Cluster, n int) (float64, error) {
	return privacy.NTClosenessOf(t, clusters, n)
}

// Comparison baselines beyond the paper's own algorithms (Section 3 related
// work, implemented for the benchmark suite).
const (
	// SABREBaseline is the bucketization-and-redistribution framework of
	// Cao et al., the closest prior t-closeness-specific method.
	SABREBaseline = core.SABREBaseline
	// IncognitoBaseline is the classical full-domain generalization lattice
	// search with the t-closeness constraint (Li et al., ICDE 2007).
	IncognitoBaseline = core.IncognitoBaseline
)

// LinkageRisk runs the distance-based record-linkage attack of the SDC
// literature against a release and returns the fraction of records an
// intruder holding the original quasi-identifiers re-identifies; see
// package risk.
func LinkageRisk(original, anonymized *Table) (float64, error) {
	res, err := risk.DistanceLinkage(original, anonymized)
	if err != nil {
		return 0, err
	}
	return res.Rate(), nil
}

// CorrelationDistortion measures how much a release distorts the
// QI↔confidential Pearson correlations (mean absolute change over pairs);
// see metrics.CorrelationDistortion.
func CorrelationDistortion(original, anonymized *Table) (float64, error) {
	return metrics.CorrelationDistortion(original, anonymized)
}
