package mpc

import "parsecureml/internal/hw"

// Accepted-and-ignored shells of the deleted cross-session batching
// (DESIGN.md "Why there is no request-level batching"). Their only referrer
// is benchmark/inproc.go, which cannot be edited alongside program code;
// this file and ServeConfig's embedding of ignoredServeConfig (which keeps
// cfg.Batch compiling) go in the PR that can (ROADMAP 1(d)).
type BatchConfig struct{ Planner *Planner }
type Planner struct{}
type ignoredServeConfig struct{ Batch *BatchConfig }

func NewPlanner(hw.Platform) *Planner { return nil }
