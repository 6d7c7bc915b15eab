package fixture

import "fmt"

func init() {
	var c Config
	c.defaults()
	fmt.Println(Used(), Named{}, HelloOptions{}, c)
}

// Used has a non-test caller: init.
func Used() int { return 1 }

// OnlyTested is called from fixture_test.go alone.
func OnlyTested() int { return 2 }

func onlyTested() int { return 3 }

// Named's String satisfies fmt.Stringer, which is its only caller.
type Named struct{}

func (Named) String() string { return "named" }

// HelloOptions is wire contract: its fields are the encoding.
//
//wire:struct
type HelloOptions struct {
	Node string
}

// Seamed is a fault-injection entry point.
//
//repolint:testseam the failover tests kill a node through it
func Seamed() {}

// Unreasoned carries a seam directive without a reason.
//
//repolint:testseam
func Unreasoned() {}

// Config's Limit is only ever written by defaults.
type Config struct {
	Limit int
}

func (c *Config) defaults() {
	if c.Limit == 0 {
		c.Limit = 3
	}
}
