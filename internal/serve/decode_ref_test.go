package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/sparse"
)

// predictRequest is the JSON predict body as the reflective reference
// decoder reads it (see jsonScan for the wire format).
type predictRequest struct {
	Rows        int          `json:"rows"`
	Cols        int          `json:"cols"`
	Entries     [][3]float64 `json:"entries"` // [row, col, value]
	SpmvSeconds float64      `json:"spmv_seconds,omitempty"`
}

// refDecodeMatrixMeta is the reflective encoding/json decoder the
// scanner replaced, kept as the reference FuzzDecodeDifferential
// compares the scanner against. It ignores lim.Duplicates, as it did.
func refDecodeMatrixMeta(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, float64, error) {
	if isMatrixMarket(data, contentType) {
		m, err := decodeMatrixMarket(ctx, data, lim)
		return m, 0, err
	}
	var req predictRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, 0, fmt.Errorf("parsing JSON body: %w", err)
	}
	if lim.MaxRows > 0 && req.Rows > lim.MaxRows {
		return nil, 0, fmt.Errorf("%w: %d rows exceeds cap %d", sparse.ErrTooLarge, req.Rows, lim.MaxRows)
	}
	if lim.MaxCols > 0 && req.Cols > lim.MaxCols {
		return nil, 0, fmt.Errorf("%w: %d cols exceeds cap %d", sparse.ErrTooLarge, req.Cols, lim.MaxCols)
	}
	if lim.MaxNNZ > 0 && len(req.Entries) > lim.MaxNNZ {
		return nil, 0, fmt.Errorf("%w: %d entries exceeds cap %d", sparse.ErrTooLarge, len(req.Entries), lim.MaxNNZ)
	}
	entries := make([]sparse.Entry, len(req.Entries))
	for i, e := range req.Entries {
		r0, c0 := int(e[0]), int(e[1])
		if float64(r0) != e[0] || float64(c0) != e[1] {
			return nil, 0, fmt.Errorf("entry %d: non-integer coordinates (%g,%g)", i, e[0], e[1])
		}
		entries[i] = sparse.Entry{Row: r0, Col: c0, Val: e[2]}
	}
	m, err := sparse.NewCOO(req.Rows, req.Cols, entries)
	if err != nil {
		return nil, 0, fmt.Errorf("building matrix: %w", err)
	}
	clientSec := req.SpmvSeconds
	if clientSec < 0 || clientSec != clientSec || clientSec > 1e9 {
		clientSec = 0
	}
	return m, clientSec, nil
}

// parseMatrix is the replica's whole ingestion of a cache miss in one
// call, parseBody and then the matrix build, as FuzzPredictJSON drives
// it.
func (s *Server) parseMatrix(ctx context.Context, r *http.Request) (*sparse.COO, float64, error) {
	b, err := s.parseBody(ctx, r)
	if err != nil {
		return nil, 0, err
	}
	defer b.release()
	m, err := b.matrix(ctx)
	return m, b.clientSec, err
}
