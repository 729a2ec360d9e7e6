package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the union of its children's
// intervals inside it: overlapping children count once and a child running
// past the parent's end counts only up to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 2, Name: "a.1", StartNS: 10, EndNS: 20},
		{ID: 6, Parent: 3, Name: "b.1", StartNS: 40, EndNS: 45},
		{ID: 7, Parent: 3, Name: "b.2", StartNS: 35, EndNS: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 30, 3: 15, 4: 30, 5: 10, 6: 5, 7: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	r := newRecorder()
	root := r.root(7, "op")
	child := root.child("layer")
	child.end()
	root.end()
	p := r.probe(7, "probe.x")
	p.end()
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	if s := r.spans[1]; s.Parent != r.spans[0].ID || s.Op != 7 || s.Probe {
		t.Errorf("child span = %+v", s)
	}
	if s := r.spans[2]; s.Parent != 0 || !s.Probe || s.Op != 7 {
		t.Errorf("probe span = %+v", s)
	}
	for _, s := range r.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
