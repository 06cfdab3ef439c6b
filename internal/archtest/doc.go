// Package archtest holds the module's architecture rules as one
// table-driven test: which packages the fleet binaries may link, which
// package may call which function, which names stay deleted, and that the
// three fleet binaries' flags match README's tables. Every rule reads the
// module's parsed source (go/parser, go/ast) and reports each violation as
// file:line, and every rule is proven live by in-memory mutations it must
// reject. The package has no non-test code: `go test ./internal/archtest/`
// runs the table, and so does `go test ./...`.
package archtest
