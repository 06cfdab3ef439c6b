package fleet

import "parsecureml/internal/obs"

// Router observability: membership churn, session routing, and the
// failure/re-route path. Registered on obs.Default like every other
// psml_* family; cmd/psml-router's -debug-addr exposes them.
var (
	routerReplicas = obs.Default.Gauge("psml_router_replicas", "Server-pair replicas currently registered.")
	routerJoins    = obs.Default.Counter("psml_router_joins_total", "Replica registrations accepted.")
	routerLeaves   = obs.Default.Counter("psml_router_leaves_total", "Replicas removed from the registry (health-link death or observed failure).")

	routerSessions       = obs.Default.Counter("psml_router_sessions_total", "Client connections accepted across both faces.")
	routerSessionsActive = obs.Default.Gauge("psml_router_sessions_active", "Client connections currently proxied.")
	routerRequests       = obs.Default.Counter("psml_router_requests_total", "Requests relayed to replicas.")
	routerReroutes       = obs.Default.Counter("psml_router_reroutes_total", "Sessions moved to a different replica after their backend failed.")
	routerRetries        = obs.Default.Counter("psml_router_retries_total", "Request re-sends after a backend failure (same or new replica).")
	routerFailures       = obs.Default.Counter("psml_router_request_failures_total", "Requests abandoned after exhausting backend retries.")
	routerNoReplicas     = obs.Default.Counter("psml_router_no_replica_total", "Routing attempts that found an empty registry.")

	// Graceful drain: replicas that announced DRAIN (taken out of the
	// ring, in-flight sessions untouched) and how many are draining now.
	routerDrains   = obs.Default.Counter("psml_drain_total", "Replica DRAIN announcements honored (taken out of the ring).")
	routerDraining = obs.Default.Gauge("psml_draining_replicas", "Replicas currently draining: registered but out of the ring.")

	// In-band failures: typed error frames returned to clients instead of
	// closing their connections.
	routerErrorFrames = obs.Default.Counter("psml_router_error_frames_total", "Typed route-error frames returned to clients in-band (session kept open).")
)
