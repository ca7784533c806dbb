package vec

// The int8 verification pre-filter is gone: it cost more than the exact
// sweep it fronted. QuantMatrix, NewQuantMatrix, QuantizeQueryUnits and
// SquaredDistsToBoundedQuant are inert: no library code calls them, and they
// survive only because benchmark/layers.go:84,109,295,298 still names them.
// The next PR allowed to edit benchmark/ removes them (ROADMAP item 1).

// QuantMatrix holds nothing.
type QuantMatrix struct{}

// NewQuantMatrix returns an empty QuantMatrix; m is ignored.
func NewQuantMatrix(m *Matrix) *QuantMatrix { return &QuantMatrix{} }

// QuantizeQueryUnits returns dst unchanged; q is ignored.
func (qm *QuantMatrix) QuantizeQueryUnits(q []float32, dst []float64) []float64 { return dst }

// SquaredDistsToBoundedQuant is SquaredDistsToBounded(q, m, ids, bound, out);
// u and qm are ignored. It returns 0, the number of rows a pre-filter would
// have rejected.
func SquaredDistsToBoundedQuant(q []float32, u []float64, m *Matrix, qm *QuantMatrix, ids []int, bound float64, out []float64) int {
	SquaredDistsToBounded(q, m, ids, bound, out)
	return 0
}
