// Command perfbench is the repository's end-to-end benchmark. It drives the
// anonymization system only through its public entry points — core.Engine
// for runs and epochs, core.Open with the file store for persistence, and
// the serve package's HTTP job API — on one of three seeded workloads:
//
//   - release-grid: a curator choosing (k, t) on the full-size patient
//     table: eleven cold, verified releases of the paper's three algorithms
//     on one shared engine (the Figure 5 shape), with in-memory append and
//     delete epochs on a second engine in between.
//   - epoch-feed: a continuous feed into a durable file store: append and
//     delete epochs with warm re-releases in between, then a restart.
//   - service-mix: open-loop HTTP traffic against an in-process server:
//     warm and cached releases, appends, and a few cold requests.
//
// Each run checks every release against invariants the program guarantees
// (k, t, row count, restart identity) outside the timed windows, and prints
// its metrics by name, then one JSON result object as the last line of
// standard output. With -trace 1 the same workload and seed runs with
// spans recorded around every call the benchmark makes into a layer, and
// the result carries the per-layer metrics instead of the end-to-end ones.
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric the result object carries, with its unit. The
// two lists mirror BENCHMARK.json (a test pins that).
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"release_geomean_ms", "ms"},
	{"append_p50_ms", "ms"},
	{"sse", "1"},
	{"live_heap_mb", "MB"},
}

var layerMetrics = []metricDef{
	{"dataset.read_csv_ms", "ms"},
	{"core.new_engine_ms", "ms"},
	{"store.ingest_ms", "ms"},
	{"core.open_ms", "ms"},
	{"core.seed_release_ms", "ms"},
	{"core.release_tail_ms", "ms"},
	{"core.grid_s.alg1", "s"},
	{"core.grid_s.alg2", "s"},
	{"core.grid_s.alg3", "s"},
	{"tclose.partition_s.alg1", "s"},
	{"tclose.partition_s.alg2", "s"},
	{"tclose.partition_s.alg3", "s"},
	{"tclose.warm_repair_ms", "ms"},
	{"micro.aggregate_ms", "ms"},
	{"metrics.sse_ms", "ms"},
	{"privacy.assess_ms", "ms"},
	{"core.run_self_ms", "ms"},
	{"tclose.clusters", "count"},
	{"tclose.merges", "count"},
	{"tclose.swaps", "count"},
	{"tclose.warm_scope_rows", "count"},
	{"core.warm_hit_ratio", "1"},
	{"core.warm_requests", "count"},
	{"core.epoch_geomean_ms", "ms"},
	{"core.delete_p50_ms", "ms"},
	{"core.epoch_tail_ms", "ms"},
	{"core.append_substrate_ms", "ms"},
	{"core.delete_substrate_ms", "ms"},
	{"store.append_epoch_ms", "ms"},
	{"store.delete_epoch_ms", "ms"},
	{"store.bytes_per_epoch", "B"},
	{"store.bytes_per_row", "B/row"},
	{"store.stream_ms", "ms"},
	{"core.restart_s", "s"},
	{"serve.submit_ms.p50", "ms"},
	{"serve.submit_ms.tail", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.tail", "ms"},
	{"serve.engine_ms.p50", "ms"},
	{"serve.engine_ms.tail", "ms"},
	{"serve.assess_ms.p50", "ms"},
	{"serve.assess_ms.tail", "ms"},
	{"serve.result_fetch_ms.p50", "ms"},
	{"serve.result_fetch_ms.tail", "ms"},
	{"serve.append_ms.p50", "ms"},
	{"serve.append_ms.tail", "ms"},
	{"serve.cache_hit_ratio", "1"},
	{"serve.cache_lookups", "count"},
	{"serve.engine_runs", "count"},
	{"serve.shed", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "1"},
	{"loadgen.late_ms.p50", "ms"},
	{"loadgen.late_ms.max", "ms"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"release-grid": releaseGrid,
	"epoch-feed":   epochFeed,
	"service-mix":  serviceMix,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch space for stores, reports and spans
	tiny     bool   // smoke-test sizes (tests only)
}

// run is the state of one benchmark invocation: the op counters, the
// metrics gathered so far and the span recorder.
type run struct {
	cfg config
	tr  *tracer

	attempted, failed int
	violations        []string

	e2e, layer map[string]float64
	report     []string
}

func newRun(cfg config) *run {
	return &run{
		cfg:   cfg,
		tr:    &tracer{on: cfg.trace, t0: time.Now()},
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
	}
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *run) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.violations = append(r.violations, what+": "+err.Error())
	}
}

// metric records an end-to-end metric and prints it by name.
func (r *run) metric(name string, v float64, note string) {
	r.e2e[name] = v
	r.note(name, v, unitOf(e2eMetrics, name), note)
}

// layerMetric records a per-layer metric (reported with -trace 1).
func (r *run) layerMetric(name string, v float64, note string) {
	r.layer[name] = v
	if r.cfg.trace {
		r.note(name, v, unitOf(layerMetrics, name), note)
	}
}

// note prints a reported number that is not part of the result object's
// metric set (or is, via metric/layerMetric) and keeps it for the report.
func (r *run) note(name string, v float64, unit, detail string) {
	line := fmt.Sprintf("%-28s %14.4f %-6s %s", name, v, unit, detail)
	r.report = append(r.report, strings.TrimRight(line, " "))
	fmt.Println(strings.TrimRight(line, " "))
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result assembles the final object: end-to-end metrics untraced, per-layer
// metrics traced. A per-layer metric the workload has no layer for is 0.
func (r *run) result() (result, error) {
	res := result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultMetric),
	}
	if r.cfg.trace {
		for _, d := range layerMetrics {
			res.Metrics[d.name] = resultMetric{r.layer[d.name], d.unit}
		}
		return res, nil
	}
	for _, d := range e2eMetrics {
		v, ok := r.e2e[d.name]
		if !ok {
			return res, fmt.Errorf("workload %s reported no %s", r.cfg.workload, d.name)
		}
		res.Metrics[d.name] = resultMetric{v, d.unit}
	}
	return res, nil
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: release-grid, epoch-feed or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/perfbench-run", "scratch directory")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if err := execute(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its result line.
func execute(cfg config) error {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %v", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.dir = work
	r := newRun(cfg)
	if err := drive(r); err != nil {
		return err
	}
	for i, v := range r.violations {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed ops\n", len(r.violations)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", v)
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	if err := r.writeReport(filepath.Dir(work), res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeReport keeps the printed metrics, the result and — traced — every
// span in <dir>/<workload>-seed<n>-trace<0|1>.json. A traced run also
// reports its overhead against the untraced report of the same workload and
// seed when one exists.
func (r *run) writeReport(dir string, res result) error {
	doc := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds,
		"trace": r.cfg.trace, "result": res, "report": r.report, "e2e": r.e2e,
	}
	if r.cfg.trace {
		doc["spans"] = r.tr.spans
		doc["layer"] = r.layer
		if over := r.traceOverhead(dir); over != nil {
			doc["trace_overhead"] = over
		}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.reportPath(dir, r.cfg.trace), b, 0o644)
}

func (r *run) reportPath(dir string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.cfg.workload, r.cfg.seed, t))
}

// traceOverhead compares this traced run's end-to-end numbers (measured the
// same way, with spans on) against the untraced run's report, as a share of
// the untraced value.
func (r *run) traceOverhead(dir string) map[string]float64 {
	b, err := os.ReadFile(r.reportPath(dir, false))
	if err != nil {
		return nil
	}
	var prev struct {
		E2E map[string]float64 `json:"e2e"`
	}
	if json.Unmarshal(b, &prev) != nil {
		return nil
	}
	over := make(map[string]float64)
	for _, d := range e2eMetrics {
		v, ok := r.e2e[d.name]
		if base := prev.E2E[d.name]; ok && base != 0 {
			over[d.name] = (v - base) / base
			r.note("trace_overhead."+d.name, 100*over[d.name], "%", "traced vs untraced, same seed")
		}
	}
	return over
}

// --- statistics ---

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it: the
// eleventh-largest sample. Below twenty samples that percentile would sit
// in the lower half, so the maximum is reported instead.
type tail struct {
	value, pct float64
	n          int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n < 20 {
		return tail{s[n-1], 100, n}
	}
	i := n - 11
	return tail{s[i], 100 * float64(i+1) / float64(n), n}
}

func (t tail) String() string {
	if t.pct == 100 {
		return fmt.Sprintf("max of n=%d", t.n)
	}
	return fmt.Sprintf("p%.1f of n=%d", t.pct, t.n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean: every sample weighs the same in relative
// terms, so ops of very different sizes each move it by their share.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- process counters ---

// rtCounters samples the runtime's cumulative allocation and CPU counters.
type rtCounters struct{ allocBytes, gcCPU, totalCPU float64 }

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return rtCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a rtCounters) add(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// runtimeMetrics reports allocation per op and the GC's CPU share between
// two samples taken around a timed phase of ops operations.
func (r *run) runtimeMetrics(before, after rtCounters, ops int) {
	if ops > 0 {
		r.layerMetric("runtime.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/1e6/float64(ops),
			fmt.Sprintf("over %d ops", ops))
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.layerMetric("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu,
			fmt.Sprintf("of %.2f CPU-s", cpu))
	}
}

// liveHeapMB is the heap in use after a forced collection. Callers keep the
// engines and servers they measure reachable until after the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
