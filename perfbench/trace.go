package main

import "time"

// span is one call the benchmark made into a layer, or a part of such a
// call derived from what it returned. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for an operation's root).
//
// Derived spans do not correspond to a separate call at that instant: the
// partition share of Engine.Run is Result.Elapsed minus the replayed
// aggregation, and replayed sub-calls (micro.Aggregate,
// metrics.NormalizedSSE, privacy assessment) run after the operation on its
// own inputs. They are laid out back to back from the parent's start, so a
// parent's self time — its duration minus what its children cover — is the
// part of the operation no layer below accounts for.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	Start   float64            `json:"start_ms"`
	End     float64            `json:"end_ms"`
	Derived bool               `json:"derived,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out with the report when
// the run ends. With on false every method is a no-op, so untraced runs pay
// nothing beyond the nil checks.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	ops   int
}

func (tr *tracer) at(t time.Time) float64 { return float64(t.Sub(tr.t0)) / float64(time.Millisecond) }

// newOp starts a new operation and returns its id.
func (tr *tracer) newOp() int {
	tr.ops++
	return tr.ops
}

// record adds a measured span and returns its id (0 when tracing is off).
func (tr *tracer) record(op, parent int, name string, start, end time.Time) int {
	if !tr.on {
		return 0
	}
	return tr.add(span{Parent: parent, Op: op, Name: name, Start: tr.at(start), End: tr.at(end)})
}

func (tr *tracer) add(s span) int {
	s.ID = len(tr.spans) + 1
	tr.spans = append(tr.spans, s)
	return s.ID
}

// derive lays derived child spans of the given durations (ms) back to back
// from the parent's start.
func (tr *tracer) derive(parent int, parts []namedDur) {
	if !tr.on || parent == 0 {
		return
	}
	p := tr.spans[parent-1]
	at := p.Start
	for _, part := range parts {
		tr.add(span{Parent: parent, Op: p.Op, Name: part.name, Start: at, End: at + part.ms, Derived: true})
		at += part.ms
	}
}

// count attaches a count to a span.
func (tr *tracer) count(id int, name string, v float64) {
	if !tr.on || id == 0 {
		return
	}
	s := &tr.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] += v
}

type namedDur struct {
	name string
	ms   float64
}

// layerTimes groups span durations by name, and self times (duration minus
// the durations of direct children, which never overlap) by name.
func (tr *tracer) layerTimes() (dur, self map[string][]float64) {
	childSum := make([]float64, len(tr.spans)+1)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	dur = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, s := range tr.spans {
		dur[s.Name] = append(dur[s.Name], s.dur())
		self[s.Name] = append(self[s.Name], s.dur()-childSum[s.ID])
	}
	return dur, self
}

// counts sums a named count over every span with the given name.
func (tr *tracer) counts(spanName, countName string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == spanName {
			out = append(out, s.Counts[countName])
		}
	}
	return out
}
