package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/sparse"
)

// A JSON predict body is one object of explicit COO triplets:
//
//	{"rows": R, "cols": C, "entries": [[row, col, value], ...], "spmv_seconds": S}
//
// spmv_seconds optionally reports how long the client's own SpMV took
// for this pattern in its current format, which the feedback log
// captures in place of the server's cachesim estimate.
//
// jsonScan reads such a body in one pass: it validates the whole
// object, enforces the row, column and nonzero caps as the fields are
// read, and collects the (row,col) keys of the entries without
// converting their values. The values are only classified (zero,
// finite nonzero, or an exponent at the edge of float64's range).
//
// The matrix a served answer is computed from is the body's canonical
// pattern with unit values: the representations, the dtree features and
// the feedback log read positions only. When every value is a finite
// nonzero and no coordinate repeats, the collected keys are that
// pattern and no value is converted. Only zeros and repeated coordinates
// make the pattern depend on the values; such a body is scanned a
// second time for them. DecodeMatrix and DecodeMatrixMeta scan with
// values and return them.
//
// It accepts and rejects what encoding/json decoding into
// {Rows, Cols int; Entries [][3]float64; SpmvSeconds float64} with
// DisallowUnknownFields did, and yields the same matrix:
//   - bytes after the object are ignored;
//   - keys match case-insensitively (bytes.EqualFold), escapes
//     included; a repeated key's last value wins;
//   - null leaves rows, cols, spmv_seconds or a list slot as it was
//     (0 when never set), and resets the entries list;
//   - an inner array shorter than 3 reads the missing items as 0, and
//     items past the third are validated and discarded;
//   - coordinates are any number with an integral value (1e0);
//   - values that underflow to 0 (1e-400) are dropped like any zero;
//   - rows or cols that are not integers (2.0), numbers out of float64
//     range (1e400), strings, booleans and unknown keys are rejected.
//
// It is stricter than encoding/json in three cases, each a 400 or 413
// where encoding/json accepted:
//   - a rows, cols or entries value over its cap is rejected when read,
//     even if a later repeated key would have replaced it;
//   - null inside an entries list that repeats an earlier non-empty one
//     is rejected (errNullInRepeatedList): encoding/json decodes the
//     second list into the first one's storage, so such a null kept a
//     stale entry from the earlier list;
//   - with no row or column cap configured, dimensions above 1<<31 are
//     rejected: a COO indexes with int32.
type jsonScan struct {
	data     []byte
	i        int
	lim      sparse.Limits
	withVals bool // parse values into vals as well as keys
	// The caps in force: lim's, or the int32 index space and no nonzero
	// cap where lim sets none.
	maxRows, maxCols, maxNNZ int

	rows, cols int
	clientSec  float64

	// The current entries list. keys holds sparse.Key(row, col) per
	// entry in body order, vals its values when withVals is set.
	keys   []uint64
	vals   []float64
	n      int  // list elements, nulls included
	sorted bool // keys strictly increasing
	exact  bool // every value a finite nonzero: keys are the pattern
	// repeated marks a list that follows a non-empty one (see
	// errNullInRepeatedList).
	repeated       bool
	maxRow, maxCol int
	// err is the list's first semantic error (a non-integer or
	// out-of-range coordinate). It is returned only once the whole body
	// has been read, so a cap tripped anywhere still answers 413.
	err error

	// canon reports that keys (and vals, when withVals) are the
	// canonical pattern: sorted, distinct and nonzero.
	canon bool
	buf   *[]uint64 // pooled backing store of keys
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var errNullInRepeatedList = fmt.Errorf("%w: null inside an entries list that repeats an earlier non-empty one", sparse.ErrMalformed)

// keyBufs recycles key slices, so a cache hit allocates no per-entry
// memory.
var keyBufs = sync.Pool{New: func() any { return new([]uint64) }}

// scanJSON scans a JSON predict body (see jsonScan), parsing the entry
// values too when withVals is set. The caller releases the result.
func scanJSON(ctx context.Context, data []byte, lim sparse.Limits, withVals bool) (*jsonScan, error) {
	buf := keyBufs.Get().(*[]uint64)
	s := newJSONScan(data, lim, withVals, (*buf)[:0])
	s.buf = buf
	if err := s.object(ctx); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

func newJSONScan(data []byte, lim sparse.Limits, withVals bool, keys []uint64) *jsonScan {
	s := &jsonScan{data: data, lim: lim, withVals: withVals, keys: keys,
		maxRows: dimCap(lim.MaxRows), maxCols: dimCap(lim.MaxCols), maxNNZ: lim.MaxNNZ}
	if s.maxNNZ <= 0 {
		s.maxNNZ = math.MaxInt
	}
	s.resetList()
	return s
}

// dimCap is the effective dimension cap: a COO indexes with int32.
func dimCap(c int) int {
	if c <= 0 || c > 1<<31 {
		return 1 << 31
	}
	return c
}

// release returns the key slice to the pool, unless it grew past 8 MiB,
// which is left to the collector. The scan is unusable afterwards.
func (s *jsonScan) release() {
	if s.buf != nil && cap(s.keys) <= 1<<20 {
		*s.buf = s.keys[:0]
		keyBufs.Put(s.buf)
	}
	s.buf, s.keys = nil, nil
}

// fingerprint returns sparse.Fingerprint of the body's canonical
// matrix without building it. It may reorder keys.
func (s *jsonScan) fingerprint(ctx context.Context) (uint64, error) {
	if err := s.pattern(ctx); err != nil {
		return 0, err
	}
	return sparse.FingerprintKeys(s.rows, s.cols, s.keys), nil
}

// matrix builds the body's canonical matrix: with its values when the
// scan collected them, and otherwise the pattern with unit values. The
// matrix takes ownership of vals.
func (s *jsonScan) matrix(ctx context.Context) (*sparse.COO, error) {
	if err := s.pattern(ctx); err != nil {
		return nil, err
	}
	vals := s.vals
	if !s.withVals {
		vals = make([]float64, len(s.keys))
		for i := range vals {
			vals[i] = 1
		}
	}
	m, err := sparse.NewCOOSorted(s.rows, s.cols, s.keys, vals)
	s.vals = nil
	return m, err
}

// pattern brings keys (and vals, when withVals) into NewCOO's canonical
// form. Keys whose values are all finite nonzeros need only sorting
// unless a coordinate repeats; otherwise the values decide which
// coordinates survive, and a scan that skipped them rescans the body
// for them.
func (s *jsonScan) pattern(ctx context.Context) error {
	if s.canon {
		return nil
	}
	if !s.withVals && s.exact {
		if !s.sorted {
			slices.Sort(s.keys)
		}
		if s.canon = !hasRepeat(s.keys); s.canon {
			return nil
		}
	}
	if !s.withVals {
		r := newJSONScan(s.data, s.lim, true, s.keys[:0])
		r.vals = make([]float64, 0, s.n)
		if err := r.object(ctx); err != nil {
			return fmt.Errorf("rescanning JSON body for values: %w", err)
		}
		s.keys, s.vals = r.keys, r.vals
	}
	s.keys, s.vals = sparse.Canonicalize(s.keys, s.vals)
	s.canon = true
	return nil
}

func hasRepeat(sorted []uint64) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

func (s *jsonScan) syntax(what string) error {
	return fmt.Errorf("%w: %s at byte %d", sparse.ErrMalformed, what, s.i)
}

// peek returns the next byte, or 0 (never valid there) at the end.
func (s *jsonScan) peek() byte {
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

func (s *jsonScan) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// object scans the top-level object and runs the end-of-body checks.
func (s *jsonScan) object(ctx context.Context) error {
	s.ws()
	if s.peek() != '{' {
		if s.i == len(s.data) {
			return s.syntax("empty body")
		}
		return s.syntax("body is not a JSON object")
	}
	s.i++
	s.ws()
	if s.peek() == '}' {
		s.i++
		return s.finish()
	}
	for {
		if s.peek() != '"' {
			return s.syntax("expected a field name")
		}
		key, err := s.key()
		if err != nil {
			return err
		}
		s.ws()
		if s.peek() != ':' {
			return s.syntax("expected ':'")
		}
		s.i++
		s.ws()
		switch {
		case fieldIs(key, "rows"):
			err = s.dim(&s.rows, s.maxRows, "rows")
		case fieldIs(key, "cols"):
			err = s.dim(&s.cols, s.maxCols, "cols")
		case fieldIs(key, "entries"):
			err = s.entries(ctx)
		case fieldIs(key, "spmv_seconds"):
			err = s.seconds()
		default:
			err = fmt.Errorf("%w: unknown field %q", sparse.ErrMalformed, key)
		}
		if err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.i++
			s.ws()
		case '}':
			// Like encoding/json's Decoder, stop at the object's end:
			// trailing bytes are never read.
			s.i++
			return s.finish()
		default:
			return s.syntax("expected ',' or '}'")
		}
	}
}

func fieldIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// finish runs the checks that need the whole body.
func (s *jsonScan) finish() error {
	if s.err != nil {
		return s.err
	}
	if s.rows <= 0 || s.cols <= 0 {
		return fmt.Errorf("%w: non-positive dimensions %dx%d", sparse.ErrMalformed, s.rows, s.cols)
	}
	if len(s.keys) > 0 && (s.maxRow >= s.rows || s.maxCol >= s.cols) {
		return fmt.Errorf("%w: entries reach row %d and col %d, outside the %dx%d matrix",
			sparse.ErrMalformed, s.maxRow, s.maxCol, s.rows, s.cols)
	}
	if s.lim.Duplicates == sparse.DupReject && !s.sorted {
		keys := slices.Clone(s.keys)
		slices.Sort(keys)
		if hasRepeat(keys) {
			return fmt.Errorf("%w: repeated coordinate in entries", sparse.ErrMalformed)
		}
	}
	if c := s.clientSec; c < 0 || c != c || c > 1e9 { // negative, NaN or absurd
		s.clientSec = 0
	}
	s.canon = s.sorted && s.exact
	return nil
}

// key scans a field name and returns it unescaped.
func (s *jsonScan) key() ([]byte, error) {
	start := s.i
	escaped, err := s.str()
	if err != nil {
		return nil, err
	}
	if !escaped {
		return s.data[start+1 : s.i-1], nil
	}
	var k string
	if err := json.Unmarshal(s.data[start:s.i], &k); err != nil {
		return nil, fmt.Errorf("%w: field name: %v", sparse.ErrMalformed, err)
	}
	return []byte(k), nil
}

// str scans a string and reports whether it holds escapes.
func (s *jsonScan) str() (escaped bool, err error) {
	d := s.data
	s.i++ // opening quote
	for s.i < len(d) {
		c := d[s.i]
		switch {
		case c == '"':
			s.i++
			return escaped, nil
		case c == '\\':
			escaped = true
			s.i++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				for k := 0; k < 4; k++ {
					if !isHex(s.peek()) {
						return false, s.syntax("bad \\u escape")
					}
					s.i++
				}
			default:
				return false, s.syntax("bad escape")
			}
		case c < 0x20:
			return false, s.syntax("control character in string")
		default:
			s.i++
		}
	}
	return false, s.syntax("unterminated string")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// Number token shapes, as numberEnd reports them.
const (
	numFrac    = 1 << iota // has a fraction
	numExp                 // has an exponent
	numNonzero             // some mantissa digit is not 0
)

// number scans a number token and reports its shape.
func (s *jsonScan) number() (tok []byte, shape int, err error) {
	end, shape, ok := numberEnd(s.data, s.i)
	if !ok {
		s.i = end
		return nil, 0, s.syntax("bad number")
	}
	tok, s.i = s.data[s.i:end], end
	return tok, shape, nil
}

// numberEnd returns the end and shape of the number token at d[i:], or
// where its grammar breaks with ok false.
func numberEnd(d []byte, i int) (end, shape int, ok bool) {
	var digits byte // OR of the mantissa digits' values
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d) && isDigit(d[i]); i++ {
			digits |= d[i] - '0'
		}
	default:
		return i, 0, false
	}
	if i < len(d) && d[i] == '.' {
		shape |= numFrac
		if i++; i >= len(d) || !isDigit(d[i]) {
			return i, 0, false
		}
		for ; i < len(d) && isDigit(d[i]); i++ {
			digits |= d[i] - '0'
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		shape |= numExp
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return i, 0, false
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if digits != 0 {
		shape |= numNonzero
	}
	return i, shape, true
}

// literal scans one of true, false or null.
func (s *jsonScan) literal(word string) error {
	if !bytes.HasPrefix(s.data[s.i:], []byte(word)) {
		return s.syntax("bad literal")
	}
	s.i += len(word)
	return nil
}

func (s *jsonScan) typeError(field string) error {
	return fmt.Errorf("%w: %s has the wrong type at byte %d", sparse.ErrMalformed, field, s.i)
}

// dim scans rows or cols: an integer, or null for no change.
func (s *jsonScan) dim(dst *int, limit int, name string) error {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		tok, shape, err := s.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if shape&(numFrac|numExp) != 0 || err != nil {
			return fmt.Errorf("%w: %s %q is not an integer", sparse.ErrMalformed, name, tok)
		}
		if v > int64(limit) {
			return fmt.Errorf("%w: %d %s exceeds cap %d", sparse.ErrTooLarge, v, name, limit)
		}
		*dst = int(v)
		return nil
	default:
		return s.typeError(name)
	}
}

// seconds scans spmv_seconds: a number, or null for no change.
func (s *jsonScan) seconds() error {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		tok, _, err := s.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return fmt.Errorf("%w: spmv_seconds: %v", sparse.ErrMalformed, err)
		}
		s.clientSec = v
		return nil
	default:
		return s.typeError("spmv_seconds")
	}
}

func (s *jsonScan) resetList() {
	s.keys, s.n, s.err = s.keys[:0], 0, nil
	if s.vals != nil {
		s.vals = s.vals[:0]
	}
	s.sorted, s.exact = true, true
	s.maxRow, s.maxCol = 0, 0
}

// entries scans the entries list: an array of entries, or null for an
// empty list.
func (s *jsonScan) entries(ctx context.Context) error {
	repeated := s.n > 0
	s.resetList()
	switch s.peek() {
	case 'n':
		s.repeated = false
		return s.literal("null")
	case '[':
	default:
		return s.typeError("entries")
	}
	s.repeated = repeated
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if ok, err := s.plainEntry(); err != nil {
			return err
		} else if !ok {
			if err := s.entry(); err != nil {
				return err
			}
		}
		s.n++
		if s.n > s.maxNNZ {
			return fmt.Errorf("%w: more than %d entries", sparse.ErrTooLarge, s.maxNNZ)
		}
		if s.n%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("scanning entries: %w", err)
			}
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.i++
			s.ws()
		case ']':
			s.i++
			return nil
		default:
			return s.syntax("expected ',' or ']' in entries")
		}
	}
}

// plainEntry scans the common entry shape, [row,col,value] with plain
// integer coordinates and no whitespace, with local indices. For any
// other shape it reports false having consumed nothing, and entry scans
// the element in full. It is a measured fast path: on a 2-vCPU VM it
// cut perfbench's hot-zipf CPU per request by a quarter and raised
// cold-saturate's throughput by a quarter.
func (s *jsonScan) plainEntry() (bool, error) {
	d, i := s.data, s.i
	if i >= len(d) || d[i] != '[' {
		return false, nil
	}
	r, i, ok := plainInt(d, i+1)
	if !ok || i >= len(d) || d[i] != ',' {
		return false, nil
	}
	c, i, ok := plainInt(d, i+1)
	if !ok || i >= len(d) || d[i] != ',' {
		return false, nil
	}
	end, shape, ok := numberEnd(d, i+1)
	if !ok || end >= len(d) || d[end] != ']' {
		return false, nil
	}
	v, nonzero, err := s.value(d[i+1:end], shape)
	if err != nil {
		s.i = i + 1
		return false, err
	}
	s.i = end + 1
	s.add(float64(r), float64(c), v, nonzero)
	return true, nil
}

// plainInt reads up to nine digits with no leading zero at d[i:].
func plainInt(d []byte, i int) (v, end int, ok bool) {
	start := i
	for ; i < len(d) && isDigit(d[i]) && i-start < 10; i++ {
		v = v*10 + int(d[i]-'0')
	}
	n := i - start
	return v, i, n > 0 && n < 10 && (n == 1 || d[start] != '0')
}

// entry scans one list element, [row, col, value] or null, and records
// it.
func (s *jsonScan) entry() error {
	var slot [3]float64 // unset slots read as 0
	nonzero := false
	switch s.peek() {
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
		s.nullSlot()
		s.add(slot[0], slot[1], slot[2], nonzero)
		return nil
	case '[':
	default:
		return s.typeError("an entry")
	}
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		s.add(slot[0], slot[1], slot[2], nonzero)
		return nil
	}
	for k := 0; ; k++ {
		var err error
		switch c := s.peek(); {
		case k >= 3:
			err = s.skip(4) // the top object, entries and this entry are open
		case c == 'n':
			err = s.literal("null")
			s.nullSlot()
		case c == '-' || isDigit(c):
			var tok []byte
			var shape int
			if tok, shape, err = s.number(); err != nil {
				break
			}
			if k < 2 {
				slot[k], err = coordinate(tok)
			} else {
				slot[2], nonzero, err = s.value(tok, shape)
			}
		default:
			err = s.typeError("an entry item")
		}
		if err != nil {
			return err
		}
		s.ws()
		switch s.peek() {
		case ',':
			s.i++
			s.ws()
		case ']':
			s.i++
			s.add(slot[0], slot[1], slot[2], nonzero)
			return nil
		default:
			return s.syntax("expected ',' or ']' in an entry")
		}
	}
}

// nullSlot notes a null entry or entry item: 0 in a fresh list, but a
// stale value from the earlier list in a repeated one.
func (s *jsonScan) nullSlot() {
	if s.repeated && s.err == nil {
		s.err = errNullInRepeatedList
	}
}

// coordinate converts a coordinate token as encoding/json did, to a
// float64; whether it is an integer is add's concern.
func coordinate(tok []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: coordinate: %v", sparse.ErrMalformed, err)
	}
	return f, nil
}

// value converts a value token when the scan collects values, and
// otherwise only reads from its shape whether it is nonzero. A nonzero
// token whose exponent could sit at the edge of float64's range is
// converted in either case, since only conversion tells whether it
// underflows to 0 or overflows.
func (s *jsonScan) value(tok []byte, shape int) (v float64, nonzero bool, err error) {
	nonzero = shape&numNonzero != 0
	edge := nonzero && (shape&numExp != 0 || len(tok) > 300) && onEdge(tok)
	if !edge && !s.withVals {
		return 0, nonzero, nil
	}
	if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return 0, false, fmt.Errorf("%w: value: %v", sparse.ErrMalformed, err)
	}
	return v, v != 0, nil
}

// onEdge reports whether a nonzero number token could underflow to 0
// or overflow: the decimal exponent of its leading digit is beyond ±300,
// or the token is too long to bound that exponent by counting (a
// mantissa past 300 digits, whose leading zeros could cancel a large
// exponent, or an exponent past 1e5). Such a token is left to
// strconv.ParseFloat.
func onEdge(tok []byte) bool {
	i, pos, lead := 0, 0, -1 // pos counts mantissa digits; lead is the first nonzero one
	if tok[0] == '-' {
		i++
	}
	for ; i < len(tok) && isDigit(tok[i]); i++ {
		if lead < 0 && tok[i] != '0' {
			lead = pos
		}
		pos++
	}
	intDigits := pos
	if i < len(tok) && tok[i] == '.' {
		for i++; i < len(tok) && isDigit(tok[i]); i++ {
			if lead < 0 && tok[i] != '0' {
				lead = pos
			}
			pos++
		}
	}
	if pos > 300 {
		return true
	}
	exp, neg := 0, false
	if i < len(tok) { // e or E
		i++
		if tok[i] == '+' || tok[i] == '-' {
			neg = tok[i] == '-'
			i++
		}
		for ; i < len(tok); i++ {
			if exp = exp*10 + int(tok[i]-'0'); exp > 1e5 {
				return true
			}
		}
		if neg {
			exp = -exp
		}
	}
	e10 := intDigits - 1 - lead + exp
	return e10 < -300 || e10 > 300
}

// add records one decoded entry of the current list.
func (s *jsonScan) add(row, col, v float64, nonzero bool) {
	if s.err != nil {
		return // the list is already rejected; keep scanning for syntax and caps
	}
	r, c := int(row), int(col)
	if float64(r) != row || float64(c) != col {
		s.err = fmt.Errorf("%w: entry %d: non-integer coordinates (%g,%g)", sparse.ErrMalformed, s.n, row, col)
		return
	}
	if r < 0 || c < 0 || r >= s.maxRows || c >= s.maxCols {
		s.err = fmt.Errorf("%w: entry (%d,%d) out of range", sparse.ErrMalformed, r, c)
		return
	}
	k := sparse.Key(r, c)
	if n := len(s.keys); n > 0 && k <= s.keys[n-1] {
		s.sorted = false
	}
	s.keys = append(s.keys, k)
	if s.withVals {
		s.vals = append(s.vals, v)
	}
	s.maxRow, s.maxCol = max(s.maxRow, r), max(s.maxCol, c)
	if !nonzero {
		s.exact = false
	}
}

// skip validates and discards any JSON value; depth is the nesting
// level a container here would open.
func (s *jsonScan) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '-' || isDigit(c):
		_, _, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '[' || c == '{':
		if depth > maxDepth {
			return s.syntax("exceeded max depth")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		s.i++
		s.ws()
		if s.peek() == end {
			s.i++
			return nil
		}
		for {
			if c == '{' {
				if s.peek() != '"' {
					return s.syntax("expected a field name")
				}
				if _, err := s.str(); err != nil {
					return err
				}
				s.ws()
				if s.peek() != ':' {
					return s.syntax("expected ':'")
				}
				s.i++
				s.ws()
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			s.ws()
			switch s.peek() {
			case ',':
				s.i++
				s.ws()
			case end:
				s.i++
				return nil
			default:
				return s.syntax("expected ',' or a closing bracket")
			}
		}
	default:
		return s.syntax("expected a value")
	}
}
