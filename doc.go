// Package ace is a from-scratch Go reproduction of the Ambient
// Computational Environments (ACE) architecture (University of
// Kansas, ICPP 2000 / ITTC-FY2002-TR-23150-01): a pervasive-computing
// middleware of cooperating service daemons with a purpose-built
// command language, lease-based service discovery, command
// notifications, KeyNote trust management, TLS transport, resource
// monitors and application launchers, VNC-style user workspaces,
// identification devices, media pipelines, and a 3-way replicated
// persistent store.
//
// The public entry point is internal/core.Environment; see README.md,
// DESIGN.md, and EXPERIMENTS.md. The root-level benchmarks in
// bench_test.go time the paper's evaluated figures, the tests of the
// package that owns each figure assert its shape, and bash
// bench/run.sh measures the call path, the store and the directory.
package ace
