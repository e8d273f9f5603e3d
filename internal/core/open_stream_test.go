package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/synth"
)

// ingestCensus writes the census fixture through the streaming CSV
// ingester under a tiny chunk budget, so the stored dataset holds many
// small chunks for an open to replay.
func ingestCensus(t *testing.T, b store.Backend, name string, n int) *dataset.Table {
	t.Helper()
	tbl := synth.Census(n, synth.FedTax, synth.DefaultSeed)
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if _, err := store.IngestCSV(b, name, strings.NewReader(csv.String()), 4<<10); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// An engine opened from the store must be bit-identical to one prepared
// directly over the source table: same table hash, same epoch counter,
// and byte-identical releases across all six algorithms on the census
// fixture.
func TestOpenStreamingBitIdenticalAllAlgorithms(t *testing.T) {
	b, err := store.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := ingestCensus(t, b, "census", 700)

	direct, err := NewEngine(src)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(b, "census")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := store.TableHash(opened.Table()), store.TableHash(src); got != want {
		t.Fatalf("opened table hash %s, source %s", got, want)
	}
	if opened.Epoch() != direct.Epoch() {
		t.Fatalf("opened epoch %d, direct %d", opened.Epoch(), direct.Epoch())
	}
	for _, alg := range []Algorithm{
		Merge, KAnonymityFirst, TClosenessFirst,
		MondrianBaseline, SABREBaseline, IncognitoBaseline,
	} {
		spec := Spec{Algorithm: alg, K: 4, T: 0.3}
		want := releaseCSV(t, direct, spec)
		got := releaseCSV(t, opened, spec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: opened release differs from the direct engine's release", alg)
		}
	}
}

// Epoch histories — appends introducing new dictionary labels, deletes,
// then more appends — must open back exactly as the writing engine held
// them: same hash, same epoch counter, byte-identical releases. The
// reopened engine must seed warm runs across epochs committed after the
// open and keep writing through durably.
func TestOpenStreamingEpochReplay(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		b, err := store.NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Create(b, "ds", mixedTable(t, 120))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(
			[]any{33.0, 90100.0, "kirkenes", "flu"},
			[]any{58.0, 90200.0, "oslo", "asthma"},
		); err != nil {
			t.Fatal(err)
		}
		if err := eng.Delete(3, 17, 40); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append([]any{41.0, 90300.0, "vadso", "cold"}); err != nil {
			t.Fatal(err)
		}
		spec := Spec{Algorithm: TClosenessFirst, K: 4, T: 0.3}
		release := releaseCSV(t, eng, spec)

		opened, err := Open(b, "ds")
		if err != nil {
			t.Fatal(err)
		}
		if opened.Epoch() != 3 {
			t.Fatalf("opened epoch %d, want 3", opened.Epoch())
		}
		if got, want := store.TableHash(opened.Table()), store.TableHash(eng.Table()); got != want {
			t.Fatalf("opened table hash %s, want %s", got, want)
		}
		if got := releaseCSV(t, opened, spec); !bytes.Equal(got, release) {
			t.Fatal("opened release differs from the writing engine's")
		}

		// A seed cached after the open replays the epochs committed after it.
		warm := Spec{Algorithm: TClosenessFirst, K: 4, T: 0.3, Warm: true}
		if _, err := opened.Run(t.Context(), warm); err != nil {
			t.Fatal(err)
		}
		if err := opened.Delete(5, 6); err != nil {
			t.Fatal(err)
		}
		res, err := opened.Run(t.Context(), warm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm == nil {
			t.Fatal("warm run after the open did not use the warm cache")
		}

		// And the write-through continues: a fresh open sees the epoch the
		// reopened engine persisted.
		reopened, err := Open(b, "ds")
		if err != nil {
			t.Fatal(err)
		}
		if reopened.Epoch() != 4 {
			t.Fatalf("reopened epoch %d, want 4", reopened.Epoch())
		}
		if got, want := store.TableHash(reopened.Table()), store.TableHash(opened.Table()); got != want {
			t.Fatalf("reopened table hash %s, want %s", got, want)
		}
	})
}

// The memory contract: a 1M-row open must never hold a second full copy
// of the raw table. Peak heap while opening stays within the final
// substrate plus a fixed allowance that is far smaller than the raw table
// (which an open replaying into a scratch copy would double through).
func TestOpenStreamingMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row open skipped in -short mode")
	}
	const rows = 1_000_000
	b, err := store.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := synth.PatientDischarge(rows, 5)
	rawTableBytes := uint64(8 * rows * src.Width())
	if err := store.Write(b, "big", src); err != nil {
		t.Fatal(err)
	}
	src = nil

	// Keep the collector close on the allocator's heels so sampled heap
	// tracks live bytes instead of GOGC headroom.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()

	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	eng, err := Open(b, "big")
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != rows {
		t.Fatalf("opened %d rows, want %d", eng.Len(), rows)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	live := after.HeapAlloc // the substrate the engine retains
	t.Logf("raw table %d MiB, substrate (live after open) %d MiB, sampled peak %d MiB",
		rawTableBytes>>20, live>>20, peak.Load()>>20)

	// The allowance covers a few decoded chunks, per-chunk bookkeeping,
	// and GC lag — it must stay well under the raw table size, or the open
	// is holding a second copy.
	allowance := uint64(8<<20) + rawTableBytes/4
	if max := live + allowance; peak.Load() > max {
		t.Fatalf("peak heap %d MiB exceeds substrate %d MiB + allowance %d MiB",
			peak.Load()>>20, live>>20, allowance>>20)
	}
	runtime.KeepAlive(eng)
}
