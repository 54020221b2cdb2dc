package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

//go:embed spec.json
var specJSON []byte

// spec is the parsed spec.json.
type spec struct {
	K            int                 `json:"k"`
	OracleTol    float64             `json:"oracle_tol"`
	MinReads     int                 `json:"min_reads"`
	SetupRepeats int                 `json:"setup_repeats"`
	Bands        bands               `json:"bands"`
	Workloads    map[string]workload `json:"workloads"`
	// raw holds each workload's entry as written, for the run record.
	raw         map[string]json.RawMessage
	Predictions []prediction `json:"predictions"`
}

// bands are the degree classes as rank-fraction intervals.
type bands struct {
	Median [2]float64 `json:"median"`
	P90    [2]float64 `json:"p90"`
	Hub    [2]float64 `json:"hub"`
}

type graphSpec struct {
	Kind       string  `json:"kind"`
	Scale      float64 `json:"scale"`
	GenSeed    int64   `json:"gen_seed"`
	Nodes      int     `json:"nodes"`
	EdgeFactor int     `json:"edge_factor"`
}

// workload is one named traffic mix.
type workload struct {
	Graph   graphSpec `json:"graph"`
	Method  string    `json:"method"`
	Epsilon float64   `json:"epsilon"`
	// Path selects the runner: "online" and "exact" run Engine.Rank in
	// process, "remote" runs the serving stack.
	Path string `json:"path"`
	// Mix is the query composition of one pass, by class.
	Mix         map[string]int `json:"mix"`
	Clients     int            `json:"clients"`
	RatePerS    float64        `json:"rate_per_s"`
	WritesPer10 int            `json:"writes_per_10_ops"`
	Workers     int            `json:"workers"`
	// MinReads, when set, overrides the spec-wide minimum read count.
	MinReads int `json:"min_reads"`
	// Representation is "packed" when the engine serves graph.Pack of the
	// generated graph.
	Representation string `json:"representation"`
}

// prediction names the end-to-end metrics a per-layer metric should move and
// the workloads it moves them on; on every other workload the prediction is
// no change.
type prediction struct {
	Metric string   `json:"metric"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	var raw struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(specJSON, &raw); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	s.raw = raw.Workloads
	// The prediction table must cover exactly the reported per-layer
	// metrics and name only known workloads.
	seen := map[string]bool{}
	for _, p := range s.Predictions {
		if _, ok := units[p.Metric]; !ok {
			return nil, fmt.Errorf("spec.json: prediction for unreported metric %q", p.Metric)
		}
		for _, m := range p.Moves {
			if _, ok := units[m]; !ok {
				return nil, fmt.Errorf("spec.json: prediction %s moves unreported metric %q", p.Metric, m)
			}
		}
		seen[p.Metric] = true
		for _, w := range p.On {
			if _, ok := s.Workloads[w]; !ok {
				return nil, fmt.Errorf("spec.json: prediction %s names unknown workload %q", p.Metric, w)
			}
		}
	}
	for _, d := range perLayer {
		if !seen[d.name] {
			return nil, fmt.Errorf("spec.json: no prediction for per-layer metric %q", d.name)
		}
	}
	return &s, nil
}

func (s *spec) names() []string {
	var out []string
	for n := range s.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// minReads is the number of reads a run of w measures at least.
func (s *spec) minReads(w workload) int {
	if w.MinReads > 0 {
		return w.MinReads
	}
	return s.MinReads
}
