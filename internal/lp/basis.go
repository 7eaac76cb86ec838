package lp

// Basis is an exported snapshot of a simplex basis: the variable occupying
// each basis position plus the bound status of every structural and logical
// variable. It is the warm-start currency between LP solves — the MILP
// branch-and-bound seeds each child node's solve from its parent's optimal
// basis (Options.Basis) and snapshots a node's own basis from its Scratch
// (Scratch.SnapshotBasis) only when the node branches, so a child that
// differs from its parent by one variable bound is reinstated by a handful of
// dual-simplex pivots instead of a full phase-1 run from the logical basis.
// Options.WantBasis attaches the snapshot to the Solution instead.
//
// A Basis is immutable once created and safe to share across goroutines; the
// branch-and-bound hands one parent snapshot to both children. Statuses are
// packed two bits per variable, so a snapshot costs ≈(n+m)/4 bytes plus one
// int32 per row — cheap enough to hang off every open search node.
//
// Determinism: Basis is part of the solve's determinism domain. A solve is a
// pure function of (Problem, bounds, Options) including Options.Basis — the
// same snapshot always reproduces the same iteration path and the same
// Solution bit-for-bit. Callers that cache or compare solve results must
// treat Basis like any other Options field (the MILP layer's node →
// parent-basis assignment is itself deterministic in the round structure,
// which is how the parallel determinism matrix survives warm starts).
type Basis struct {
	n, m   int
	packed []uint64 // 2-bit status codes, structural vars then logical rows
	basis  []int32  // basis[k] = variable basic at position k
}

// NumVars returns the structural-variable count the snapshot was taken for.
func (b *Basis) NumVars() int { return b.n }

// NumRows returns the row count the snapshot was taken for.
func (b *Basis) NumRows() int { return b.m }

func (b *Basis) statusAt(j int) byte {
	return byte(b.packed[j>>5] >> uint((j&31)*2) & 3)
}

// snapshotBasis captures the solver's current basis and statuses.
func (s *simplex) snapshotBasis() *Basis {
	b := &Basis{
		n:      s.n,
		m:      s.m,
		packed: make([]uint64, (s.total+31)/32),
		basis:  make([]int32, s.m),
	}
	for j := 0; j < s.total; j++ {
		b.packed[j>>5] |= uint64(s.status[j]) << uint((j&31)*2)
	}
	for k, v := range s.basis {
		b.basis[k] = int32(v)
	}
	return b
}

// loadBasis installs a snapshot as the solver's starting basis: statuses and
// basis order are restored, nonbasic statuses are normalized against the
// current (possibly changed) bounds, and the basis inverse is rebuilt by a
// dense refactorization. It reports false — leaving the solver in an
// undefined state the caller must reset — when the snapshot's shape does not
// match the problem, its basic set is inconsistent, or the basis matrix is
// singular under the current problem.
func (s *simplex) loadBasis(b *Basis) bool {
	if b == nil || b.n != s.n || b.m != s.m {
		return false
	}
	basics := 0
	for j := 0; j < s.total; j++ {
		st := b.statusAt(j)
		s.status[j] = st
		s.pos[j] = -1
		if st == statusBasic {
			basics++
		}
	}
	if basics != s.m {
		return false
	}
	for k := 0; k < s.m; k++ {
		j := int(b.basis[k])
		if j < 0 || j >= s.total || s.status[j] != statusBasic || s.pos[j] != -1 {
			return false
		}
		s.basis[k] = j
		s.pos[j] = k
	}
	// Normalize nonbasic statuses against the current bounds: a snapshot
	// taken under different bounds may pin a variable to a bound that no
	// longer exists. Mirrors initialStatus's preference order.
	for j := 0; j < s.total; j++ {
		switch s.status[j] {
		case statusBasic:
			continue
		case statusAtLower:
			if isNegInf(s.lo[j]) {
				s.status[j] = s.initialStatus(j)
			}
		case statusAtUpper:
			if isPosInf(s.hi[j]) {
				s.status[j] = s.initialStatus(j)
			}
		case statusFree:
			if !isNegInf(s.lo[j]) || !isPosInf(s.hi[j]) {
				s.status[j] = s.initialStatus(j)
			}
		}
	}
	if err := s.refactorize(); err != nil {
		return false
	}
	return true
}
