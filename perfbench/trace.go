package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer of the program.  Spans of one operation share its op id; parent is
// the index of the enclosing span, or -1 for a root.
type span struct {
	name       string
	start, end time.Time
	parent     int
	op         int64
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, which is how the untraced (end-to-end) runs stay free of it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index for use as a parent.
// A child is clipped to its parent's interval.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		p := t.spans[parent]
		start, end = clip(start, p.start, p.end), clip(end, p.start, p.end)
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return len(t.spans) - 1
}

// chain records consecutive segments of one blocking path as children of
// parent: segment i starts no earlier than segment i-1 ended, so siblings
// never overlap and their self times add up to the parent's covered time.
func (t *tracer) chain(parent int, op int64, segs []segment) {
	prev := time.Time{}
	for _, s := range segs {
		start, end := s.start, s.end
		if start.Before(prev) {
			start = prev
		}
		if end.Before(start) {
			end = start
		}
		t.add(s.name, parent, op, start, end)
		prev = end
	}
}

// segment is one named interval of a blocking path (see tracer.chain).
type segment struct {
	name       string
	start, end time.Time
}

func clip(x, lo, hi time.Time) time.Time {
	if x.Before(lo) {
		return lo
	}
	if x.After(hi) {
		return hi
	}
	return x
}

// selfTimes returns, for every operation whose root span is named root,
// the self time of each span name in its tree: a span's duration minus the
// part its children cover.  Siblings recorded through chain never overlap,
// so an operation's self times sum to its root's duration.
func (t *tracer) selfTimes(root string) map[int64]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end.Sub(s.start)
		}
	}
	rootOf := func(i int) int {
		for t.spans[i].parent >= 0 {
			i = t.spans[i].parent
		}
		return i
	}
	out := make(map[int64]map[string]time.Duration)
	for i, s := range t.spans {
		r := rootOf(i)
		if t.spans[r].name != root {
			continue
		}
		op := t.spans[r].op
		if out[op] == nil {
			out[op] = make(map[string]time.Duration)
		}
		out[op][s.name] += s.end.Sub(s.start) - covered[i]
	}
	return out
}

// account prints where the median traced operation's time went: per span
// name, the median self time across operations whose root is root, their
// sum, and the remainder of the median latency they leave unexplained.  It
// returns the remainder as a share of the median latency.
func (t *tracer) account(w io.Writer, root string, medianLatency time.Duration) float64 {
	per := t.selfTimes(root)
	if len(per) == 0 || medianLatency <= 0 {
		return 0
	}
	byName := make(map[string][]float64)
	for _, m := range per {
		for name, d := range m {
			byName[name] = append(byName[name], ms(d))
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "blocking path of the median %s (%d traced ops), self time per layer:\n", root, len(per))
	var sum float64
	for _, name := range names {
		v := byName[name]
		// A name missing from some ops contributed zero there.
		for len(v) < len(per) {
			v = append(v, 0)
		}
		m := median(v)
		sum += m
		fmt.Fprintf(w, "  %-28s %10.3f ms  (mean %.3f ms)\n", name, m, mean(v))
	}
	lat := ms(medianLatency)
	fmt.Fprintf(w, "  %-28s %10.3f ms\n  %-28s %10.3f ms\n  %-28s %10.3f ms  (%.1f%%)\n",
		"sum of layer medians", sum, "median latency", lat, "remainder", lat-sum, 100*(lat-sum)/lat)
	return (lat - sum) / lat
}

// writeChrome exports every span as a Chrome trace-event "X" event (open in
// chrome://tracing or Perfetto).  Each operation gets its own thread row.
func (t *tracer) writeChrome(path string, meta map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		layer, _, _ := strings.Cut(s.name, ".")
		evs = append(evs, event{Name: s.name, Cat: layer, Ph: "X", Ts: us(s.start.Sub(t.t0)),
			Dur: us(s.end.Sub(s.start)), Pid: 1, Tid: s.op, Args: args})
	}
	// Parents before children at equal timestamps keeps viewers nesting them.
	slices.SortStableFunc(evs, func(a, b event) int {
		if a.Ts != b.Ts {
			if a.Ts < b.Ts {
				return -1
			}
			return 1
		}
		if a.Dur > b.Dur {
			return -1
		}
		if a.Dur < b.Dur {
			return 1
		}
		return 0
	})
	doc := map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace export: %w", err)
	}
	return f.Close()
}
