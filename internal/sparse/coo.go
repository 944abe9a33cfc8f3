package sparse

import (
	"fmt"
	"sort"
)

// COO stores a sparse matrix in coordinate (triplet) form: parallel
// arrays of row index, column index and value, exactly as in Figure 1 of
// the paper. Canonical COO is sorted row-major with no duplicate or
// explicit-zero entries; NewCOO establishes that invariant.
type COO struct {
	rows, cols int
	Rows       []int32
	Cols       []int32
	Vals       []float64
}

// NewCOO builds a canonical COO matrix from triplet entries. Duplicate
// (row,col) entries are summed; entries that sum to zero are dropped.
// It returns an error when an index is out of range.
func NewCOO(rows, cols int, entries []Entry) (*COO, error) {
	if err := checkDims(rows, cols); err != nil {
		return nil, err
	}
	keys := make([]uint64, len(entries))
	vals := make([]float64, len(entries))
	for i, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d matrix",
				e.Row, e.Col, rows, cols)
		}
		keys[i], vals[i] = Key(e.Row, e.Col), e.Val
	}
	keys, vals = Canonicalize(keys, vals)
	return fromKeys(rows, cols, keys, vals), nil
}

// maxSide is the largest dimension a COO can index: Rows and Cols are
// int32, so indices stop at 1<<31 - 1.
const maxSide = 1 << 31

func checkDims(rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("sparse: non-positive dimensions %dx%d", rows, cols)
	}
	if rows > maxSide || cols > maxSide {
		return fmt.Errorf("sparse: dimensions %dx%d exceed the int32 index space", rows, cols)
	}
	return nil
}

// Key packs a coordinate into one uint64, row in the high half, so
// that keys order row-major. Both indices must be in [0, 1<<32).
func Key(row, col int) uint64 { return uint64(row)<<32 | uint64(uint32(col)) }

// Canonicalize puts keyed triplets (keys[i] holds the coordinate of
// vals[i]) into NewCOO's canonical form in place: sorted by key, each
// repeated key summed into one entry and zero sums dropped. It returns
// the shortened slices. Input that is already strictly increasing and
// nonzero is returned untouched in one pass.
func Canonicalize(keys []uint64, vals []float64) ([]uint64, []float64) {
	if isCanonical(keys, vals) {
		return keys, vals
	}
	sort.Sort(keyed{keys, vals})
	n := 0
	for i := 0; i < len(keys); {
		j := i + 1
		v := vals[i]
		for j < len(keys) && keys[j] == keys[i] {
			v += vals[j]
			j++
		}
		if v != 0 {
			keys[n], vals[n] = keys[i], v
			n++
		}
		i = j
	}
	return keys[:n], vals[:n]
}

func isCanonical(keys []uint64, vals []float64) bool {
	for i, k := range keys {
		if vals[i] == 0 || (i > 0 && k <= keys[i-1]) {
			return false
		}
	}
	return true
}

// keyed sorts parallel key and value slices by key.
type keyed struct {
	keys []uint64
	vals []float64
}

func (k keyed) Len() int           { return len(k.keys) }
func (k keyed) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyed) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.vals[i], k.vals[j] = k.vals[j], k.vals[i]
}

// NewCOOSorted builds a COO from keyed triplets that are already
// canonical: keys (see Key) strictly increasing, every coordinate
// inside rows×cols and every value nonzero. It verifies that in one
// O(n) pass and errors otherwise. The matrix takes ownership of vals;
// keys is only read.
func NewCOOSorted(rows, cols int, keys []uint64, vals []float64) (*COO, error) {
	if err := checkDims(rows, cols); err != nil {
		return nil, err
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("sparse: %d keys for %d values", len(keys), len(vals))
	}
	for i, k := range keys {
		r, c := k>>32, k&0xFFFFFFFF
		switch {
		case r >= uint64(rows) || c >= uint64(cols):
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d matrix", r, c, rows, cols)
		case i > 0 && k <= keys[i-1]:
			return nil, fmt.Errorf("sparse: entry %d (%d,%d) is not after its predecessor", i, r, c)
		case vals[i] == 0:
			return nil, fmt.Errorf("sparse: entry %d (%d,%d) is an explicit zero", i, r, c)
		}
	}
	return fromKeys(rows, cols, keys, vals), nil
}

// fromKeys builds the matrix from canonical keyed triplets, taking
// ownership of vals. An empty matrix keeps nil index slices.
func fromKeys(rows, cols int, keys []uint64, vals []float64) *COO {
	c := &COO{rows: rows, cols: cols}
	if len(keys) == 0 {
		return c
	}
	c.Rows = make([]int32, len(keys))
	c.Cols = make([]int32, len(keys))
	for i, k := range keys {
		c.Rows[i], c.Cols[i] = int32(k>>32), int32(uint32(k))
	}
	c.Vals = vals
	return c
}

// MustCOO is NewCOO that panics on error; for use with known-good data
// such as generators and tests.
func MustCOO(rows, cols int, entries []Entry) *COO {
	c, err := NewCOO(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return c
}

// Dims returns (rows, cols).
func (c *COO) Dims() (int, int) { return c.rows, c.cols }

// NNZ returns the number of stored nonzeros.
func (c *COO) NNZ() int { return len(c.Vals) }

// Format returns FormatCOO.
func (c *COO) Format() Format { return FormatCOO }

// ToCOO returns the receiver itself (COO is canonical).
func (c *COO) ToCOO() *COO { return c }

// Bytes reports the storage footprint: two 4-byte indices and one 8-byte
// value per nonzero.
func (c *COO) Bytes() int64 { return int64(c.NNZ()) * (4 + 4 + 8) }

// MulVec computes y = A·x with the COO SpMV loop from Figure 1.
func (c *COO) MulVec(y, x []float64) {
	checkMulVecDims(c.rows, c.cols, y, x, FormatCOO)
	for i := range y {
		y[i] = 0
	}
	for k, v := range c.Vals {
		y[c.Rows[k]] += v * x[c.Cols[k]]
	}
}

// Entries returns the nonzeros as a fresh triplet slice in canonical
// (row-major) order.
func (c *COO) Entries() []Entry {
	es := make([]Entry, c.NNZ())
	for k := range es {
		es[k] = Entry{Row: int(c.Rows[k]), Col: int(c.Cols[k]), Val: c.Vals[k]}
	}
	return es
}

// Dense materialises the matrix as a dense row-major slice of length
// rows*cols. Intended for tests and small matrices only.
func (c *COO) Dense() []float64 {
	d := make([]float64, c.rows*c.cols)
	for k, v := range c.Vals {
		d[int(c.Rows[k])*c.cols+int(c.Cols[k])] = v
	}
	return d
}

// RowCounts returns the number of nonzeros in each row.
func (c *COO) RowCounts() []int {
	counts := make([]int, c.rows)
	for _, r := range c.Rows {
		counts[r]++
	}
	return counts
}

// Transpose returns Aᵀ in canonical COO form.
func (c *COO) Transpose() *COO {
	es := make([]Entry, c.NNZ())
	for k := range es {
		es[k] = Entry{Row: int(c.Cols[k]), Col: int(c.Rows[k]), Val: c.Vals[k]}
	}
	return MustCOO(c.cols, c.rows, es)
}

// Equal reports whether two COO matrices have identical dimensions and
// nonzero structure/values. Both are assumed canonical.
func (c *COO) Equal(o *COO) bool {
	if c.rows != o.rows || c.cols != o.cols || len(c.Vals) != len(o.Vals) {
		return false
	}
	for k := range c.Vals {
		if c.Rows[k] != o.Rows[k] || c.Cols[k] != o.Cols[k] || c.Vals[k] != o.Vals[k] {
			return false
		}
	}
	return true
}
