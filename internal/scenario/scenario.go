// Package scenario implements scenario sets and the paper's α-summaries
// (§4.1) with the summary-selection machinery of §5: random partitioning
// into Z groups, greedy selection of the subset G_z(α) by scenario score
// (§5.3). Materialized Sets serve the Naïve SAA baseline and act as the
// reference that internal/stream's block-wise ScenarioCursor (the §5.5
// memory-efficient path SummarySearch runs on) is checked against; both
// agree bit for bit because realizations are pure functions of their
// (tuple, scenario) coordinates.
package scenario

import (
	"math"
	"sort"

	"spq/internal/relation"
	"spq/internal/rng"
)

// Direction selects the conservative extreme for a summary: for an inner
// constraint Σ a·x ≥ v the tuple-wise Min is conservative; for ≤ the Max is
// (Proposition 1 of the paper).
type Direction int

const (
	// Min takes tuple-wise minima over the chosen scenarios.
	Min Direction = iota
	// Max takes tuple-wise maxima.
	Max
)

func (d Direction) String() string {
	if d == Min {
		return "min"
	}
	return "max"
}

// Opposite returns the other direction (used by the convergence-acceleration
// trick of §5.5).
func (d Direction) Opposite() Direction {
	if d == Min {
		return Max
	}
	return Min
}

// Set is a materialized scenario set for one stochastic attribute: vals[j][i]
// is the realization of tuple i in the set's j-th scenario. IDs records the
// absolute scenario indices (so incrementally grown sets and their partitions
// keep stable identities across Naïve/SummarySearch iterations).
type Set struct {
	Attr string
	N    int
	IDs  []int
	vals [][]float64
}

// FromRows builds a Set directly from realized rows; rows[j][i] is the value
// of tuple i in the scenario with absolute index ids[j]. It is used by the
// translation layer to materialize scenario sets of inner-function values
// (linear combinations of several attributes) rather than single attributes.
func FromRows(attr string, ids []int, rows [][]float64) *Set {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0])
	}
	return &Set{Attr: attr, N: n, IDs: append([]int(nil), ids...), vals: rows}
}

// AppendRow appends one realized scenario row with the given absolute index.
func (s *Set) AppendRow(id int, row []float64) {
	if s.N == 0 {
		s.N = len(row)
	}
	s.IDs = append(s.IDs, id)
	s.vals = append(s.vals, row)
}

// Generate materializes scenarios [first, first+m) of attribute attr from
// the relation under source src.
func Generate(src rng.Source, rel *relation.Relation, attr string, first, m int) (*Set, error) {
	s := &Set{Attr: attr, N: rel.N()}
	for j := 0; j < m; j++ {
		row := make([]float64, rel.N())
		if err := rel.Realize(src, attr, first+j, row); err != nil {
			return nil, err
		}
		s.IDs = append(s.IDs, first+j)
		s.vals = append(s.vals, row)
	}
	return s, nil
}

// Extend appends scenarios [next, next+m) where next is the current maximum
// absolute index + 1.
func (s *Set) Extend(src rng.Source, rel *relation.Relation, m int) error {
	next := 0
	if len(s.IDs) > 0 {
		next = s.IDs[len(s.IDs)-1] + 1
	}
	for j := 0; j < m; j++ {
		row := make([]float64, rel.N())
		if err := rel.Realize(src, s.Attr, next+j, row); err != nil {
			return err
		}
		s.IDs = append(s.IDs, next+j)
		s.vals = append(s.vals, row)
	}
	return nil
}

// M returns the number of scenarios in the set.
func (s *Set) M() int { return len(s.vals) }

// Value returns the realization of tuple i in the set's local scenario j.
func (s *Set) Value(i, j int) float64 { return s.vals[j][i] }

// Row returns the full realization vector of local scenario j. The returned
// slice is shared; callers must not modify it.
func (s *Set) Row(j int) []float64 { return s.vals[j] }

// Score computes the scenario score Σ_i s_ij·x_i of local scenario j for a
// sparse solution (§5.3). Only tuples with x_i ≠ 0 contribute.
func (s *Set) Score(j int, x []float64) float64 {
	row := s.vals[j]
	sum := 0.0
	for i, xi := range x {
		if xi != 0 {
			sum += row[i] * xi
		}
	}
	return sum
}

// PartitionIDs splits the scenario indices {0..m-1} into z near-equal random
// groups using a seeded shuffle, per §4.1 ("dividing S randomly into Z
// disjoint partitions"). The same (m, z, seed) yields the same partition.
// It depends only on the scenario count, not on realized values, which is
// what lets the streamed pipeline partition scenarios it never materialized.
func PartitionIDs(m, z int, seed uint64) [][]int {
	if z < 1 {
		z = 1
	}
	if z > m {
		z = m
	}
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	st := rng.NewStream(seed)
	for i := m - 1; i > 0; i-- {
		k := st.IntN(i + 1)
		perm[i], perm[k] = perm[k], perm[i]
	}
	parts := make([][]int, z)
	for i, idx := range perm {
		parts[i%z] = append(parts[i%z], idx)
	}
	return parts
}

// Partition splits the local scenario indices {0..M-1} into z near-equal
// random groups using a seeded shuffle, per §4.1. The same seed yields the
// same partition. It delegates to PartitionIDs.
func (s *Set) Partition(z int, seed uint64) [][]int {
	return PartitionIDs(s.M(), z, seed)
}

// GreedyPick returns the ⌈α·|part|⌉ local scenario indices of part whose
// scores under the previous solution x are most favourable (§5.3): for a ≥
// inner constraint (dir == Min) the highest-scoring scenarios keep x
// feasible, for ≤ (dir == Max) the lowest-scoring do.
// With x == nil (no previous solution), the first ⌈α·|part|⌉ scenarios of
// the partition are used.
func (s *Set) GreedyPick(part []int, alpha float64, dir Direction, x []float64) []int {
	var scores map[int]float64
	if x != nil {
		scores = make(map[int]float64, len(part))
		for _, j := range part {
			scores[j] = s.Score(j, x)
		}
	}
	return Pick(part, alpha, dir, scores)
}

// Pick is the selection step of GreedyPick factored out of the materialized
// Set: given precomputed scenario scores (nil when no previous solution
// exists), it returns the ⌈α·|part|⌉ most favourable indices of part under
// the same stable ordering GreedyPick uses. Streamed summarization computes
// scores from a cursor and calls Pick, so both paths order ties identically.
func Pick(part []int, alpha float64, dir Direction, scores map[int]float64) []int {
	n := int(math.Ceil(alpha * float64(len(part))))
	if n <= 0 {
		return nil
	}
	if n > len(part) {
		n = len(part)
	}
	chosen := append([]int(nil), part...)
	if scores != nil {
		sort.SliceStable(chosen, func(a, b int) bool {
			if dir == Min {
				return scores[chosen[a]] > scores[chosen[b]] // descending for ≥
			}
			return scores[chosen[a]] < scores[chosen[b]] // ascending for ≤
		})
	}
	return chosen[:n]
}

// Summary is an α-summary: a synthetic deterministic realization S̃ such
// that any solution satisfying S̃ satisfies at least ⌈α·M⌉ real scenarios
// of the summarized group (Definition 1 / Proposition 1).
type Summary struct {
	Attr   string
	Values []float64
	// Chosen records the local scenario indices the summary covers.
	Chosen []int
	// Dir and Accel record the fold inputs the summary was built with, so
	// stream.ScenarioCursor.PatchSummarize can recompute individual tuples
	// after a delta without re-deriving the per-tuple fold direction.
	Dir   Direction
	Accel []bool
}

// Summarize builds the α-summary of the chosen scenarios by taking the
// tuple-wise extreme in direction dir. If accel is non-nil, tuples with
// accel[i] == true use the opposite extreme — the §5.5 convergence
// acceleration that keeps the previous solution's tuples feasible at the
// cost of the conservativeness guarantee on those tuples.
func (s *Set) Summarize(chosen []int, dir Direction, accel []bool) *Summary {
	out := &Summary{Attr: s.Attr, Values: make([]float64, s.N), Chosen: append([]int(nil), chosen...), Dir: dir, Accel: cloneAccel(accel)}
	for i := 0; i < s.N; i++ {
		d := dir
		if accel != nil && accel[i] {
			d = d.Opposite()
		}
		v := s.vals[chosen[0]][i]
		for _, j := range chosen[1:] {
			w := s.vals[j][i]
			if (d == Min && w < v) || (d == Max && w > v) {
				v = w
			}
		}
		out.Values[i] = v
	}
	return out
}

func cloneAccel(accel []bool) []bool {
	if accel == nil {
		return nil
	}
	return append([]bool(nil), accel...)
}

// SatisfiedBy counts how many of the chosen scenarios a solution satisfies
// for the inner constraint Σ a·x ⊙ v; it is the test-side check of the
// α-summary guarantee.
func (s *Set) SatisfiedBy(x []float64, chosen []int, geq bool, v float64) int {
	count := 0
	for _, j := range chosen {
		score := s.Score(j, x)
		if (geq && score >= v) || (!geq && score <= v) {
			count++
		}
	}
	return count
}
