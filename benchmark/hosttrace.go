package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// hostSpan is one interval of host time the driver measured around a call
// into the system. Spans form a tree through Parent; submit spans carry the
// index of the request they issued.
type hostSpan struct {
	Name   string
	ID     int
	Parent int // -1 for the root
	Start  time.Duration
	Dur    time.Duration
	Call   int // request index, -1 when the span belongs to no single request
}

// hostTrace keeps a traced rep's host spans in memory. Span 0 is the rep
// itself; set-up and the engine run are its children, and every submit and
// barrier probe is a child of the engine run.
type hostTrace struct {
	t0    time.Time
	spans []hostSpan
}

func newHostTrace() *hostTrace {
	h := &hostTrace{t0: time.Now()}
	h.spans = append(h.spans, hostSpan{Name: "rep", Parent: -1, Call: -1})
	return h
}

func (h *hostTrace) add(name string, parent int, start time.Time, dur time.Duration, call int) int {
	id := len(h.spans)
	h.spans = append(h.spans, hostSpan{Name: name, ID: id, Parent: parent, Start: start.Sub(h.t0), Dur: dur, Call: call})
	return id
}

func (h *hostTrace) end() { h.spans[0].Dur = time.Since(h.t0) }

// total sums the durations of the spans called name and counts them.
func (h *hostTrace) total(name string) (sum time.Duration, n int) {
	for _, s := range h.spans {
		if s.Name == name {
			sum += s.Dur
			n++
		}
	}
	return sum, n
}

// write stores the spans as a Chrome trace (chrome://tracing, Perfetto).
func (h *hostTrace) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(h.spans))
	for i, s := range h.spans {
		args := map[string]int{"id": s.ID, "parent": s.Parent}
		if s.Call >= 0 {
			args["request"] = s.Call
		}
		events[i] = event{Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts: float64(s.Start) / float64(time.Microsecond), Dur: float64(s.Dur) / float64(time.Microsecond)}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ns", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
