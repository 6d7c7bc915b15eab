package cluster

// State returns the container state.
func (c *Container) State() State { return State(c.state.Load()) }

// Idle returns how many of the pool's containers are idle, slot residents
// included.
func (p *FnPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	for i := range p.slots {
		if p.slots[i].c.Load() != nil {
			n++
		}
	}
	return n
}
