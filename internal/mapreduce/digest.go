package mapreduce

import "encoding/binary"

// Digest returns the segment's content digest: a 64-bit hash of its
// record payloads and record boundaries. The ID and the columnar form
// do not enter it — two segments holding the same records share a
// digest, which is what content addressing needs; callers that must
// tell positions or forms apart mix those in on top. The hash has no
// seed, so digests agree across processes and may name cache entries
// on other machines. Zero is reserved for "no digest".
//
// The digest is computed on first use and memoized on the segment, so
// Records must not change after the first call. Safe for concurrent
// use.
func (s *Segment) Digest() uint64 {
	if d := s.digest.Load(); d != 0 {
		return d
	}
	d := contentDigest(s.Records)
	s.digest.Store(d)
	return d
}

// WithID returns a shallow copy of s at position id: same Records and
// Columns, with the content digest carried over (computed now if s had
// none), so the copy never hashes again. s is not modified apart from
// its digest memo.
func (s *Segment) WithID(id int) *Segment {
	c := &Segment{ID: id, Records: s.Records, Columns: s.Columns}
	c.digest.Store(s.Digest())
	return c
}

// contentDigest hashes records eight bytes at a time: an FNV-1a-style
// round (xor, multiply by the FNV prime) per little-endian word, with
// an xor-shift that feeds the product's high bits back into the low
// ones, and a final avalanche. Each record's length precedes its bytes,
// so record boundaries are part of the content and the zero padding of
// a short tail word is unambiguous.
func contentDigest(records [][]byte) uint64 {
	h := digestRound(digestOffset, uint64(len(records)))
	for _, r := range records {
		h = digestRound(h, uint64(len(r)))
		for ; len(r) >= 8; r = r[8:] {
			h = digestRound(h, binary.LittleEndian.Uint64(r))
		}
		if len(r) > 0 {
			var tail uint64
			for i, b := range r {
				tail |= uint64(b) << (8 * i)
			}
			h = digestRound(h, tail)
		}
	}
	// MurmurHash3's 64-bit finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

const (
	digestOffset = 14695981039346656037 // FNV-1a 64-bit offset basis
	digestPrime  = 1099511628211        // FNV 64-bit prime
)

// digestRound folds one word into h. For a fixed word it is a bijection
// on h, so two states that differ stay different.
func digestRound(h, w uint64) uint64 {
	h = (h ^ w) * digestPrime
	return h ^ h>>32
}
