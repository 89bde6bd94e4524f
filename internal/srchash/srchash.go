// Package srchash is the single source-content hashing scheme shared by
// every staleness check in the toolkit: the solved-snapshot reader
// (internal/snapfile) re-hashing its recorded inputs, the driver's
// content-addressed object cache, and the incremental pipeline's unit
// store (internal/incr). Keeping the scheme in one leaf package means a
// hash change (widening the digest, switching the function) updates
// every consumer at once — it cannot silently desynchronize one
// staleness check from the others, which would make a cache serve
// results for sources that a sibling layer considers changed.
//
// The scheme is 64-bit FNV-1a rendered as 16 lowercase hex digits. It
// fingerprints content for change *detection*, not for integrity against
// an adversary; the object stores keyed by it live in caller-owned cache
// directories.
package srchash

import "os"

const (
	offset = uint64(14695981039346656037)
	prime  = uint64(1099511628211)
)

// Fold folds bytes into a running FNV-1a state. Seed with Offset().
func Fold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// FoldString is Fold over a string without copying.
func FoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// FoldU32 folds one little-endian u32 into a running FNV-1a state.
func FoldU32(h uint64, v uint32) uint64 {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return Fold(h, b[:])
}

// FoldU64 folds one little-endian u64 into a running FNV-1a state.
func FoldU64(h uint64, v uint64) uint64 {
	return FoldU32(FoldU32(h, uint32(v)), uint32(v>>32))
}

// Offset returns the FNV-1a offset basis, the seed for Fold chains.
func Offset() uint64 { return offset }

// Bytes fingerprints content as 16 hex digits.
func Bytes(b []byte) string { return Render(Fold(offset, b)) }

// String fingerprints string content as 16 hex digits.
func String(s string) string { return Render(FoldString(offset, s)) }

// Mix spreads a folded state's bits (the splitmix64 finalizer), for
// digests of a set that xor one mixed hash per element: unmixed FNV
// states would let structure in the elements cancel.
func Mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Render formats a folded state the way Bytes does, for callers that
// fold incrementally.
func Render(h uint64) string {
	const hex = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hex[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// File fingerprints one file's current contents, returning its size
// alongside (snapshot staleness records both).
func File(path string) (hash string, size int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	return Bytes(b), int64(len(b)), nil
}
