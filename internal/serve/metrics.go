package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latWindow is the number of recent run latencies kept for the quantile
// estimates: large enough that p99 is meaningful, small and fixed so a
// long-lived server's metrics cost stays constant.
const latWindow = 512

// metrics is the server's KPI state: monotonic counters plus a fixed-size
// ring of recent successful-run latencies for p50/p99.
type metrics struct {
	start time.Time

	runs       atomic.Int64 // successful engine runs
	failures   atomic.Int64 // jobs finished in the failed state
	panics     atomic.Int64 // run attempts that ended in a recovered panic
	retries    atomic.Int64 // transient-failure retries performed
	timeouts   atomic.Int64 // jobs failed on their deadline
	cancels    atomic.Int64 // jobs finished in the canceled state
	shed       atomic.Int64 // submissions rejected by the full queue (429)
	cacheHits  atomic.Int64 // submissions served from the result cache
	cacheMiss  atomic.Int64 // submissions that had to run the engine
	inFlight   atomic.Int64 // jobs currently executing
	transients atomic.Int64 // transient attempt failures observed

	warmHits           atomic.Int64 // runs seeded from a warm partition
	warmMisses         atomic.Int64 // warm-requested runs that fell back cold
	warmRepairRows     atomic.Int64 // rows touched by warm repairs (scope)
	warmRepairClusters atomic.Int64 // clusters folded/split/re-extracted warm

	shardedRuns atomic.Int64 // successful sharded-construction runs

	latMu   sync.Mutex
	lat     [latWindow]time.Duration
	latLen  int
	latNext int
}

func (m *metrics) observe(d time.Duration) {
	m.latMu.Lock()
	m.lat[m.latNext] = d
	m.latNext = (m.latNext + 1) % latWindow
	if m.latLen < latWindow {
		m.latLen++
	}
	m.latMu.Unlock()
}

// quantiles returns the p50 and p99 of the recorded window (zeros when no
// run has completed yet).
func (m *metrics) quantiles() (p50, p99 time.Duration) {
	m.latMu.Lock()
	n := m.latLen
	buf := make([]time.Duration, n)
	copy(buf, m.lat[:n])
	m.latMu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := func(q float64) int {
		i := int(q * float64(n-1))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return buf[idx(0.50)], buf[idx(0.99)]
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Runs       int64 `json:"runs"`
	Failures   int64 `json:"failures"`
	Panics     int64 `json:"panics"`
	Retries    int64 `json:"retries"`
	Transients int64 `json:"transient_failures"`
	Timeouts   int64 `json:"timeouts"`
	Canceled   int64 `json:"canceled"`
	Shed       int64 `json:"shed"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// Warm-start KPIs: hit/miss split of warm-eligible runs, plus the repair
	// scope actually touched — the numbers that show re-anonymization cost
	// tracking the delta rather than the table.
	WarmHits           int64 `json:"warm_hits"`
	WarmMisses         int64 `json:"warm_misses"`
	WarmRepairRows     int64 `json:"warm_repair_rows"`
	WarmRepairClusters int64 `json:"warm_repair_clusters"`

	// ShardedRuns counts successful sharded-construction runs (see the
	// "sharded" submission flag).
	ShardedRuns int64 `json:"sharded_runs"`

	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	InFlight      int64 `json:"jobs_in_flight"`
	Datasets      int   `json:"datasets"`

	P50Millis float64 `json:"run_latency_p50_ms"`
	P99Millis float64 `json:"run_latency_p99_ms"`
}

func (s *Server) snapshotMetrics() MetricsSnapshot {
	p50, p99 := s.metrics.quantiles()
	s.mu.Lock()
	datasets := len(s.datasets)
	s.mu.Unlock()
	return MetricsSnapshot{
		UptimeSeconds:      time.Since(s.metrics.start).Seconds(),
		Runs:               s.metrics.runs.Load(),
		Failures:           s.metrics.failures.Load(),
		Panics:             s.metrics.panics.Load(),
		Retries:            s.metrics.retries.Load(),
		Transients:         s.metrics.transients.Load(),
		Timeouts:           s.metrics.timeouts.Load(),
		Canceled:           s.metrics.cancels.Load(),
		Shed:               s.metrics.shed.Load(),
		CacheHits:          s.metrics.cacheHits.Load(),
		CacheMisses:        s.metrics.cacheMiss.Load(),
		WarmHits:           s.metrics.warmHits.Load(),
		WarmMisses:         s.metrics.warmMisses.Load(),
		WarmRepairRows:     s.metrics.warmRepairRows.Load(),
		WarmRepairClusters: s.metrics.warmRepairClusters.Load(),
		ShardedRuns:        s.metrics.shardedRuns.Load(),
		QueueDepth:         len(s.queue),
		QueueCapacity:      cap(s.queue),
		InFlight:           s.metrics.inFlight.Load(),
		Datasets:           datasets,
		P50Millis:          float64(p50) / float64(time.Millisecond),
		P99Millis:          float64(p99) / float64(time.Millisecond),
	}
}
