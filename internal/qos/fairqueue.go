package qos

import "sync"

// FairQueue is the runtime plane's blocking face of Stride: a mutex makes
// the scheduler safe for the executor goroutines, and a parked Acquire waits
// on a channel the granting release closes. While a slot is free (and the
// tenant is under its in-flight cap) Acquire returns immediately, so an
// unsaturated engine pays one uncontended mutex per instance.
type FairQueue struct {
	mu     sync.Mutex
	stride *Stride[chan struct{}]
}

// NewFairQueue returns a queue granting at most cfg.Capacity slots.
func NewFairQueue(cfg *Config) *FairQueue {
	return &FairQueue{stride: NewStride[chan struct{}](cfg)}
}

// Acquire blocks until the tenant is granted an execution slot and returns
// the release func (call exactly once, when the execution finishes).
func (q *FairQueue) Acquire(tenant string) (release func()) {
	if q == nil {
		return func() {} // plane disabled: every slot is free, release is a no-op
	}
	var parked chan struct{}
	q.mu.Lock()
	if !q.stride.Acquire(tenant) {
		parked = make(chan struct{})
		q.stride.Park(tenant, parked)
	}
	q.mu.Unlock()
	if parked != nil {
		<-parked
	}
	return func() { q.release(tenant) }
}

// release returns a slot and wakes the parked work it frees room for.
func (q *FairQueue) release(tenant string) {
	q.mu.Lock()
	q.stride.Release(tenant)
	for ch, ok := q.stride.Next(); ok; ch, ok = q.stride.Next() {
		close(ch)
	}
	q.mu.Unlock()
}

// Snapshot reads the queue's occupancy for the governor: total parked and
// in-flight counts plus the per-tenant breakdown.
func (q *FairQueue) Snapshot() (waiting, inflight int, perTenant map[string]TenantLoad) {
	if q == nil {
		return 0, 0, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stride.Snapshot()
}

// Capacity returns the queue's total grant capacity.
func (q *FairQueue) Capacity() int {
	if q == nil {
		return 0
	}
	return q.stride.cfg.Capacity
}

// Waiting returns the number of parked acquisitions.
func (q *FairQueue) Waiting() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stride.waiting
}

// InFlight returns the number of outstanding grants.
func (q *FairQueue) InFlight() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stride.inflight
}
