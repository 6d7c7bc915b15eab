package cluster

// State returns the container state.
func (c *Container) State() State { return State(c.state.Load()) }
