package main

import (
	"fmt"
	"math/rand"
	"sort"

	"roundtriprank/internal/graph"
)

// query is one single-node read and its degree class.
type query struct {
	node  graph.NodeID
	class string
}

// degreeView is the part of a graph the degree classes need.
type degreeView interface {
	NumNodes() int
	OutDegree(v graph.NodeID) int
	InDegree(v graph.NodeID) int
}

// band returns the nodes whose (total degree, id) rank falls in [lo, hi) of
// all nodes.
func band(g degreeView, frac [2]float64) []graph.NodeID {
	n := g.NumNodes()
	ids := make([]graph.NodeID, n)
	deg := make([]int, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
		deg[i] = g.OutDegree(graph.NodeID(i)) + g.InDegree(graph.NodeID(i))
	}
	sort.SliceStable(ids, func(a, b int) bool { return deg[ids[a]] < deg[ids[b]] })
	return ids[int(frac[0]*float64(n)):int(frac[1]*float64(n))]
}

// draw picks k distinct nodes of pool by systematic sampling: k evenly
// spaced positions with one seeded offset. Every seed gets a sample spread
// across the whole pool (which band orders by degree, then id), so the
// workload's cost varies less from seed to seed than with a simple random
// draw.
func draw(rng *rand.Rand, pool []graph.NodeID, k int) ([]graph.NodeID, error) {
	if k > len(pool) {
		return nil, fmt.Errorf("cannot draw %d distinct nodes from a pool of %d", k, len(pool))
	}
	u := rng.Float64()
	out := make([]graph.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, pool[int((float64(i)+u)*float64(len(pool))/float64(k))])
	}
	return out, nil
}

// panel picks k nodes at evenly spaced rank fractions (i+0.5)/k of pool,
// independent of the seed.
func panel(pool []graph.NodeID, k int) []graph.NodeID {
	out := make([]graph.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, pool[int((float64(i)+0.5)/float64(k)*float64(len(pool)))])
	}
	return out
}

// buildPass assembles one pass of the workload's query mix: median and p90
// nodes drawn with the seed, hubs from the fixed panel (the hub band is small
// and its per-query cost spans more than an order of magnitude, so a seeded
// draw of a few hubs would make the tail a lottery), and "any" nodes drawn
// from every node with in- and out-degree at least one. The pass order is
// shuffled with the seed.
func buildPass(g degreeView, s *spec, w workload, rng *rand.Rand) ([]query, error) {
	var pass []query
	for _, class := range []string{"median", "p90", "hub", "any"} {
		k := w.Mix[class]
		if k == 0 {
			continue
		}
		var nodes []graph.NodeID
		var err error
		switch class {
		case "median":
			nodes, err = draw(rng, band(g, s.Bands.Median), k)
		case "p90":
			nodes, err = draw(rng, band(g, s.Bands.P90), k)
		case "hub":
			nodes = panel(band(g, s.Bands.Hub), k)
		case "any":
			var pool []graph.NodeID
			for v := 0; v < g.NumNodes(); v++ {
				if g.InDegree(graph.NodeID(v)) >= 1 && g.OutDegree(graph.NodeID(v)) >= 1 {
					pool = append(pool, graph.NodeID(v))
				}
			}
			nodes, err = draw(rng, pool, k)
		}
		if err != nil {
			return nil, fmt.Errorf("%s class: %w", class, err)
		}
		for _, v := range nodes {
			pass = append(pass, query{node: v, class: class})
		}
	}
	rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass, nil
}
