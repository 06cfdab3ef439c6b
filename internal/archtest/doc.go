// Package archtest holds the module's architecture rules as one
// table-driven test: which packages the fleet binaries may link, which
// package may call which function, which names stay deleted, that every
// exported name under internal/ has a non-test user, that the CI drills name
// tests that exist, and that the three fleet binaries' flags match README's
// tables. Every rule reads the module's parsed source (go/parser, go/ast) or
// its scripts and workflows as text, reports each violation as file:line,
// and is proven live by in-memory mutations it must reject. The package has
// no non-test code: `go test ./internal/archtest/` runs the table, and so
// does `go test ./...`.
package archtest
