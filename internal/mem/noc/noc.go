// Package noc models the interconnection network of the simulated CC-NUMA
// machine: a hypercube with wormhole routing, pipelined routers, and
// endpoint (un)marshaling, per Table 1 of the paper (64 nodes, 16 ns
// pin-to-pin router latency, 16 ns endpoint marshaling, 16-byte-wide links
// at 250 MHz).
package noc

import (
	"fmt"
	"math/bits"

	"thriftybarrier/internal/sim"
)

// Config describes the network.
type Config struct {
	// Nodes is the machine size; must be a power of two for a hypercube.
	Nodes int
	// PinToPin is the per-hop router latency.
	PinToPin sim.Cycles
	// Endpoint is the (un)marshaling latency paid once at each endpoint.
	Endpoint sim.Cycles
	// FlitBytes is the link width; payload beyond the head flit adds
	// FlitCycle per extra flit (wormhole pipelining).
	FlitBytes int
	// FlitCycle is the time to move one flit across a link at the link
	// clock (250 MHz => 4 ns per flit).
	FlitCycle sim.Cycles
}

// DefaultConfig reproduces Table 1: 64-node hypercube, 16 ns pin-to-pin,
// 16 ns endpoint marshaling, 16-byte links at 250 MHz.
func DefaultConfig() Config {
	return Config{
		Nodes:     64,
		PinToPin:  16 * sim.Nanosecond,
		Endpoint:  16 * sim.Nanosecond,
		FlitBytes: 16,
		FlitCycle: 4 * sim.Nanosecond,
	}
}

// Validate reports an error for impossible configurations.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("noc: node count %d is not a positive power of two", c.Nodes)
	}
	if c.PinToPin < 0 || c.Endpoint < 0 || c.FlitCycle < 0 {
		return fmt.Errorf("noc: negative latency in %+v", c)
	}
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: non-positive flit width %d", c.FlitBytes)
	}
	return nil
}

// Network computes message latencies over the hypercube. It is stateless
// apart from traffic statistics (the paper's network is modeled
// contention-free: wormhole pipelined latency only). A Network belongs to
// one machine and is used from one goroutine: the parallel engine runs
// every shard on the goroutine that called Run, and concurrent machines
// (the harness's -j workers) each build their own. The statistics are
// therefore plain counters.
type Network struct {
	cfg Config
	dim int

	messages  uint64
	flitCount uint64
}

// New builds a network, panicking on invalid static configuration.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Network{cfg: cfg, dim: bits.TrailingZeros(uint(cfg.Nodes))}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Dimension returns the hypercube dimension (log2 nodes).
func (n *Network) Dimension() int { return n.dim }

// Hops returns the hypercube hop count between two nodes: the Hamming
// distance of their addresses (e-cube routing traverses one dimension per
// differing bit).
func (n *Network) Hops(src, dst int) int {
	n.checkNode(src)
	n.checkNode(dst)
	return bits.OnesCount(uint(src ^ dst))
}

// Latency returns the end-to-end latency of a message of payloadBytes from
// src to dst: marshal + hops*pinToPin + serialization of extra flits +
// unmarshal. A node messaging itself pays no network latency. Every
// inter-node message counts toward the traffic statistics.
func (n *Network) Latency(src, dst, payloadBytes int) sim.Cycles {
	hops := n.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := n.flits(payloadBytes)
	n.messages++
	n.flitCount += uint64(flits)
	return n.latency(hops, flits)
}

// MaxLatency returns the worst-case (antipodal) latency for a message of
// payloadBytes — used for conservative bounds in tests and documentation.
// It does not count toward traffic statistics (no message is modeled as
// sent).
func (n *Network) MaxLatency(payloadBytes int) sim.Cycles {
	return n.latency(n.dim, n.flits(payloadBytes))
}

// MinLatency returns the latency of a one-hop message of payloadBytes —
// the smallest delay any inter-node interaction can have, and therefore the
// lookahead floor of the parallel engine's conservative windows. It does
// not count toward traffic statistics (no message is modeled as sent).
func (n *Network) MinLatency(payloadBytes int) sim.Cycles {
	return n.latency(1, n.flits(payloadBytes))
}

// flits returns how many link-width flits carry payloadBytes (at least the
// head flit).
func (n *Network) flits(payloadBytes int) int {
	if payloadBytes <= 0 {
		return 1
	}
	return (payloadBytes + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
}

// latency is the pure latency of a message of flits flits over hops hops;
// zero hops is a node messaging itself, which costs nothing. Wormhole: body
// flits pipeline behind the head, adding one flit time each at the
// bottleneck link.
func (n *Network) latency(hops, flits int) sim.Cycles {
	if hops == 0 {
		return 0
	}
	return 2*n.cfg.Endpoint + sim.Cycles(hops)*n.cfg.PinToPin + sim.Cycles(flits-1)*n.cfg.FlitCycle
}

// Stats reports total messages and flits carried.
func (n *Network) Stats() (messages, flits uint64) { return n.messages, n.flitCount }

func (n *Network) checkNode(id int) {
	if id < 0 || id >= n.cfg.Nodes {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", id, n.cfg.Nodes))
	}
}
