package qp

import "fmt"

// Backend selects the KKT factorization path.
type Backend int

const (
	// BackendAuto (the default) uses the stage-structured Riccati path
	// when the problem declares a conforming StageStructure and has
	// inequality constraints, and the dense Cholesky/LU reference path
	// otherwise.
	BackendAuto Backend = iota
	// BackendDense forces the dense reference path, ignoring any declared
	// structure. The dense path is the golden reference the structured
	// backend is tested against.
	BackendDense
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDense:
		return "dense"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// StageStructure declares receding-horizon stage structure on a Problem:
// the decision vector, the equality rows, and the inequality rows are
// each partitioned into N contiguous stages (stage k owning NV[k]
// variables, NE[k] equality rows, NI[k] inequality rows, in order).
//
// The structural contract is the one a multiple-shooting MPC
// transcription satisfies naturally:
//
//   - H is zero outside the block-tridiagonal band: H[i][j] = 0 unless
//     the stages of i and j are equal or adjacent.
//   - A stage-k constraint row (equality or inequality) has support only
//     in the variables of stages k−1 and k.
//
// When a Problem declares a structure, Solve verifies the contract
// against the actual matrix data (a cheap scan of the out-of-band
// entries) and, if it holds, solves the interior-point KKT system with a
// block-tridiagonal LDLᵀ (Riccati) recursion in O(N·m³) instead of the
// dense O((N·m)³) — with the same static regularization, so the computed
// step solves the identical linear system as the dense reference up to
// roundoff. Non-conforming data silently falls back to the dense path
// (Result.Structured reports which path ran).
type StageStructure struct {
	// NV[k] is the number of primal variables owned by stage k (≥ 1).
	NV []int
	// NE[k] is the number of equality rows owned by stage k (≥ 0).
	NE []int
	// NI[k] is the number of inequality rows owned by stage k (≥ 0).
	NI []int
}

// UniformStages builds the common fixed-size case: n stages, each with
// nv variables, ne equality rows, and ni inequality rows.
func UniformStages(n, nv, ne, ni int) *StageStructure {
	s := &StageStructure{NV: make([]int, n), NE: make([]int, n), NI: make([]int, n)}
	for k := 0; k < n; k++ {
		s.NV[k], s.NE[k], s.NI[k] = nv, ne, ni
	}
	return s
}

// Stages returns the number of stages.
func (s *StageStructure) Stages() int { return len(s.NV) }

// Check validates the declaration against problem dimensions: per-stage
// counts must be nonnegative (variables ≥ 1) and sum to n, meq, and min.
func (s *StageStructure) Check(n, meq, min int) error {
	ns := len(s.NV)
	if ns == 0 || len(s.NE) != ns || len(s.NI) != ns {
		return fmt.Errorf("%w: stage structure with %d/%d/%d stage counts", ErrBadProblem, len(s.NV), len(s.NE), len(s.NI))
	}
	var sv, se, si int
	for k := 0; k < ns; k++ {
		if s.NV[k] < 1 || s.NE[k] < 0 || s.NI[k] < 0 {
			return fmt.Errorf("%w: stage %d has NV=%d NE=%d NI=%d", ErrBadProblem, k, s.NV[k], s.NE[k], s.NI[k])
		}
		sv += s.NV[k]
		se += s.NE[k]
		si += s.NI[k]
	}
	if sv != n || se != meq || si != min {
		return fmt.Errorf("%w: stage sums %d/%d/%d, problem dims %d/%d/%d", ErrBadProblem, sv, se, si, n, meq, min)
	}
	return nil
}
