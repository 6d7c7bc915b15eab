// Package repro is a from-scratch Go reproduction of "DataFlower:
// Exploiting the Data-flow Paradigm for Serverless Workflow Orchestration"
// (ASPLOS 2024).
//
// The library lives under internal/: the runtime-plane engine
// (internal/core) runs real workflows with the FLU/DLU abstraction inside
// one process, and the simulation plane (internal/simcluster +
// internal/experiments) regenerates every figure of the paper's evaluation.
// Cross-cutting planes grow the reproduction toward production scale: a
// routing plane (replica sets fixed at placement + locality-aware pinning), a
// fault-tolerance plane (health states + deterministic replay), and a
// real-transport plane (internal/transport: a Transport interface over
// ship/land with an in-process implementation preserving the hot path and
// a length-prefixed TCP framing, so cmd/node can split one cluster across
// OS processes). See README.md for a tour and the package map.
package repro
