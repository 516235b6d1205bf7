// Package hashkit holds the two hashing helpers the repo's hash-table
// layers (internal/ssht, internal/store, internal/kvs) had each grown a
// private copy of: FNV-1a for turning byte keys into 64-bit hashes, and
// Fibonacci-constant remixing for turning a hash into a bucket index
// whose bits are independent of whatever the hash was already used for
// (shard selection, server routing).
//
// Only the *hashing* is shared. The segment layouts deliberately stay
// separate: internal/ssht stores 8-byte keys with fixed 40-byte values
// at 6 entries per segment (one operation fits a libssmp cache-line
// message), while internal/store keeps 7 slots per segment, each a
// hash word, a key length, a live bit and one allocation holding the
// key's bytes followed by its variable-length value (hash words and
// live bits packed first so a bucket miss reads only them). Same
// cache-conscious idea, different entry shapes — unifying the layouts
// would force the generic store layout on the paper-faithful
// microbenchmark.
package hashkit

// FibMix is 2^64 / φ, the multiplicative constant of Fibonacci hashing.
const FibMix = 0x9e3779b97f4a7c15

// FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV1a hashes a string key with 64-bit FNV-1a.
func FNV1a(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// FNV1aBytes hashes a byte-slice key with 64-bit FNV-1a. It is the
// zero-copy twin of FNV1a for callers holding keys that alias a wire
// frame: FNV1a(string(b)) as an argument materializes the string, and
// that one conversion is exactly the per-request allocation the store's
// hot path is not allowed to make.
func FNV1aBytes(key []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// Mix64 is the splitmix64 avalanche finalizer: every input bit affects
// every output bit. FNV-1a over short, similar keys (the consistent-hash
// ring's "node-i#vnode-j" labels) leaves enough structure that raw
// hashes cluster on the ring; a full-avalanche remix spreads them
// uniformly. Use it when the *whole* 64-bit value must be uniform — the
// Fibonacci remix in Bucket only needs uniform high bits.
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Bucket remixes hash with the Fibonacci constant and reduces it to
// [0, nBuckets). The remix makes the bucket index independent of the
// low bits, which callers typically spend on shard or server selection.
func Bucket(hash, nBuckets uint64) uint64 {
	return (hash * FibMix >> 17) % nBuckets
}
