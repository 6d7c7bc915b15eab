//repolint:hotpath request-ID blocks are claimed on the Invoke path

// Request-ID block allocation.
//
// The Invoke hot path would touch the shared request-ID sequence once per
// request; across cores every Add is a cache-line ping between Ps. idBlock
// hands each pooled allocator a run of idBlockSize request numbers from
// the shared sequence, so the global atomic is touched once per block
// instead. IDs stay unique and keep the "req-<n>" shape (a fresh system's
// first request is still req-1), but numbering is no longer dense: a block
// dropped by the pool skips its unused range. The block's stripe tag picks
// the obs.Counter lane every counter update of its requests lands on.

package core

// idBlockSize is the run of request numbers an idBlock claims from the
// shared sequence at a time.
const idBlockSize = 256

// idBlock is a pooled allocator over [next, end) request numbers. Its
// stripe tag rides along to every Invocation minted from it, so requests
// born on the same P keep hitting the same counter lanes.
type idBlock struct {
	next, end int64
	stripe    uint32
}
