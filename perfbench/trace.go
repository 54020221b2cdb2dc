package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one operation (one query or one write) share Op; Parent is the
// index of the enclosing span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs go through the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, op int64, parent int, fn func(id int)) {
	id := t.begin(name, op, parent)
	fn(id)
	t.end(id)
}

// layerTimes folds the spans into per-operation totals by span name: the
// summed duration and the summed self time (duration minus the part of the
// span's interval its child spans cover), in milliseconds.
type layerTimes struct {
	dur, self map[string]map[int64]float64
}

func (t *tracer) fold() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{dur: map[string]map[int64]float64{}, self: map[string]map[int64]float64{}}
	add := func(m map[string]map[int64]float64, name string, op int64, v float64) {
		if m[name] == nil {
			m[name] = map[int64]float64{}
		}
		m[name][op] += v
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		add(lt.dur, s.Name, s.Op, float64(d)/1e6)
		add(lt.self, s.Name, s.Op, float64(d-covered(s, children[s.ID]))/1e6)
	}
	return lt
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// perOp returns the values of one name's per-op map, sorted by op.
func perOp(m map[int64]float64) []float64 {
	ops := make([]int64, 0, len(m))
	for op := range m {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = m[op]
	}
	return out
}

// diffPerOp returns a[op] − b[op] for every op present in both.
func diffPerOp(a, b map[int64]float64) []float64 {
	var out []float64
	for op, x := range a {
		if y, ok := b[op]; ok {
			out = append(out, x-y)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
