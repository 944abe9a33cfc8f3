package sparse

// Fingerprint returns a stable 64-bit hash of a matrix's shape and
// sparsity pattern — the identity a format selector cares about. Values
// are deliberately excluded: every input representation the CNN
// consumes (binary occupancy, block density, diagonal-distance
// histograms) is computed from nonzero positions only, so two matrices
// with the same pattern but different values always get the same
// prediction. That makes the fingerprint a sound cache key for
// prediction services.
//
// The hash is order-insensitive: each (row,col) coordinate is mixed
// independently and the per-entry hashes are combined with commutative
// reductions (sum and xor), so the same pattern presented in any entry
// order — canonical or not — fingerprints identically. It is stable
// across processes (no per-run seeding) so caches can be warmed
// offline.
//
// A 64-bit pattern hash can collide in principle; at the cache sizes a
// serving tier uses (≤ millions of entries) the birthday-bound
// collision odds are below 1e-6, which is acceptable for a cache whose
// worst case is returning the prediction of a structurally identical
// twin.
func Fingerprint(m *COO) uint64 {
	if m == nil {
		return 0
	}
	var sum, xor uint64
	for k := range m.Rows {
		h := mix64(uint64(uint32(m.Rows[k]))<<32 | uint64(uint32(m.Cols[k])))
		sum += h
		xor ^= h
	}
	return fingerprint(m.rows, m.cols, m.NNZ(), sum, xor)
}

// FingerprintKeys is Fingerprint of the rows×cols matrix whose pattern
// is keys (see Key): each key must be distinct and name a stored
// nonzero, in any order. It lets a caller that holds only the pattern
// hash it without building the matrix.
func FingerprintKeys(rows, cols int, keys []uint64) uint64 {
	var sum, xor uint64
	for _, k := range keys {
		h := mix64(k)
		sum += h
		xor ^= h
	}
	return fingerprint(rows, cols, len(keys), sum, xor)
}

func fingerprint(rows, cols, nnz int, sum, xor uint64) uint64 {
	h := mix64(uint64(rows)*0x9E3779B97F4A7C15 ^ uint64(cols))
	h = mix64(h ^ uint64(nnz))
	h = mix64(h ^ sum)
	h = mix64(h ^ xor)
	return h
}

// mix64 is the SplitMix64 finaliser: a cheap bijective mixer with good
// avalanche behaviour, so nearby coordinates land far apart.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
