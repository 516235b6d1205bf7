// Package ssync is a from-scratch Go reproduction of the SOSP'13 paper
// "Everything You Always Wanted to Know about Synchronization but Were
// Afraid to Ask" (David, Guerraoui, Trigonakis — EPFL).
//
// The repository contains the paper's SSYNC suite implemented twice:
// natively (runnable Go libraries: locks, message passing, a concurrent
// hash table, a software transactional memory and a memcached-like
// key-value store) and against a deterministic discrete-event simulator of
// the paper's four many-core platforms, which regenerates every table and
// figure of the evaluation. Start with README.md, DESIGN.md and
// `go run ./cmd/ssync list`.
package ssync
