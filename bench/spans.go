package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported entry point. Spans of one op share its id; Parent
// is the span that caused this one (0 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartNS and EndNS count from the recorder's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Probe marks extra launches made only to split a launch's time
	// between engine, trace delivery and simulator; they are not part of
	// the op and are left out of op time and coverage.
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef names an open span so children can point at it.
type spanRef struct {
	r  *recorder
	id int
	op int
}

// root opens the root span of op.
func (r *recorder) root(op int, name string) spanRef {
	return r.open(0, op, name, false)
}

func (r *recorder) open(parent, op int, name string, probe bool) spanRef {
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: int64(now), Probe: probe})
	r.mu.Unlock()
	return spanRef{r: r, id: id, op: op}
}

// child opens a span caused by p.
func (p spanRef) child(name string) spanRef { return p.r.open(p.id, p.op, name, false) }

// probe opens a probe span of op. Probes run after the op's root span
// has closed, so they never count towards it.
func (r *recorder) probe(op int, name string) spanRef { return r.open(0, op, name, true) }

// end closes the span and returns its duration.
func (p spanRef) end() time.Duration {
	now := time.Since(p.r.epoch)
	p.r.mu.Lock()
	s := &p.r.spans[p.id-1]
	s.EndNS = int64(now)
	d := s.dur()
	p.r.mu.Unlock()
	return d
}

// selfTimes returns each span's self time by span id: its duration minus
// the part of its interval that its children cover. Children may overlap
// each other (parallel device goroutines) and may run past the parent's
// end; only the union inside the parent counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
