// Package simtime is a deterministic discrete-event scheduling engine used
// to model the paper's hardware: CPU cores, the GPU execution engine, the
// two PCIe DMA channels and the inter-node network are Resources with
// serial timelines; computations and transfers are Tasks with explicit
// dependencies. A task starts at the later of (a) the time its resource
// becomes free and (b) the completion of all its dependencies — exactly the
// list-scheduling semantics that make pipeline overlap (paper Figs. 5, 6)
// fall out naturally: independent tasks on different resources overlap,
// dependent or same-resource tasks serialize.
//
// All times are float64 seconds. The engine is single-threaded and
// deterministic: schedule order is program order.
package simtime

import "fmt"

// Resource is an execution unit with a serial timeline (one task at a
// time). Examples: "gpu0.compute", "gpu0.h2d", "net.s0->s1", "cpu0".
type Resource struct {
	Name      string
	available float64 // next free time
	busy      float64 // accumulated busy seconds
}

// Busy returns the accumulated busy time of the resource.
func (r *Resource) Busy() float64 { return r.busy }

// Task is one scheduled unit of work.
type Task struct {
	ID       int
	Name     string // free-form label, e.g. "gemm 1024x1024x1024"
	Kind     string // category, e.g. "gemm", "h2d", "net"
	Resource *Resource
	Start    float64
	End      float64
}

// Duration returns End-Start.
func (t *Task) Duration() float64 { return t.End - t.Start }

// Engine owns resources and the task log.
type Engine struct {
	resources map[string]*Resource
	tasks     []*Task
	nextID    int
	maxEnd    float64
	// retain controls whether the full task log is kept. Large dry-run
	// schedules (millions of tasks) disable it; Makespan and each
	// resource's busy time stay exact, but Tasks and the trace exports see
	// only what was retained.
	retain bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		resources: make(map[string]*Resource),
		retain:    true,
	}
}

// SetRetainTasks toggles task-log retention (see Engine docs) and returns
// the previous setting.
func (e *Engine) SetRetainTasks(on bool) bool {
	prev := e.retain
	e.retain = on
	return prev
}

// Resource returns the named resource, creating it on first use.
func (e *Engine) Resource(name string) *Resource {
	if r, ok := e.resources[name]; ok {
		return r
	}
	r := &Resource{Name: name}
	e.resources[name] = r
	return r
}

// Schedule places a task of the given duration on resource r, starting no
// earlier than the completion of deps, and returns it. Negative durations
// panic. Zero-duration tasks are legal (pure synchronization points).
func (e *Engine) Schedule(r *Resource, kind, name string, duration float64, deps ...*Task) *Task {
	if duration < 0 {
		panic(fmt.Sprintf("simtime: negative duration %g for %s", duration, name))
	}
	start := r.available
	for _, d := range deps {
		if d == nil {
			continue
		}
		if d.End > start {
			start = d.End
		}
	}
	t := &Task{
		ID:       e.nextID,
		Name:     name,
		Kind:     kind,
		Resource: r,
		Start:    start,
		End:      start + duration,
	}
	e.nextID++
	r.available = t.End
	r.busy += duration
	if t.End > e.maxEnd {
		e.maxEnd = t.End
	}
	if e.retain {
		e.tasks = append(e.tasks, t)
	}
	return t
}

// After returns a zero-duration join task on a dedicated sync resource,
// completing when all deps complete. Useful to express barriers without
// occupying a real resource.
func (e *Engine) After(deps ...*Task) *Task {
	return e.Schedule(e.Resource("~sync"), "sync", "join", 0, deps...)
}

// Makespan returns the completion time of the last task (0 for an empty
// engine). Tracked incrementally, so it is exact even with task-log
// retention disabled.
func (e *Engine) Makespan() float64 { return e.maxEnd }

// Tasks returns the task log in schedule order (shared slice; do not
// mutate).
func (e *Engine) Tasks() []*Task { return e.tasks }
