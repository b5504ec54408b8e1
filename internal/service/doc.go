// Package service is the workflow-as-a-service tier over the simulated
// Hi-WAY substrate: the layer the paper's architecture implies (one YARN
// application master per workflow, many workflows from many users on one
// cluster, §"Hadoop YARN resource manager") but a single-run engine never
// exercises. It has two front doors over one admission machinery.
//
// # The seeded-arrival Service (hiway load)
//
// A seeded open-loop arrival generator (SeededSubmissions, shared with the
// Server's deterministic replay) submits workflows from mixed tenant
// profiles; an admission controller bounds concurrent AMs and applies
// queue-depth backpressure (rejection with a retry-after hint); per-tenant
// weighted fair-share quotas are enforced by internal/yarn's allocator; and
// every workflow's queue wait, makespan, end-to-end latency and rejections
// are accounted and exported through internal/obs as hiway_svc_* metrics
// and spans. Everything is deterministic by seed: the same Config and
// profiles produce byte-identical accounting across runs, which is what
// the soak tests pin.
//
// # The network Server (hiway serve)
//
// Server is the concurrent HTTP front-end over the same admission state
// machine (the shared fifoGate: bounded FIFO, concurrency cap, head-of-line
// blocking — hiway load and hiway serve admission semantics are identical
// by construction). Clients POST workflow payloads — cuneiform, dax,
// galaxy, or trace source, or a built-in workload spec — with tenant and
// policy selection; the server answers 202 with a run ID, 400/403/409 on
// invalid payloads, and 429 with a Retry-After hint under backpressure or
// per-tenant MaxInFlight quota. Status is polled per run or streamed as
// Server-Sent Events; /metrics serves the hiway_serve_* registry in
// Prometheus text format; /v1/drain (or a signal in the CLI) stops
// admission, lets in-flight runs finish, and FlushProvenance merges every
// run's provenance buffer with internal/shard's deterministic discipline.
//
// Concurrency follows internal/shard's sharded-substrate rule rather than
// fine-grained locking of one substrate: each admitted run executes on its
// own goroutine against its own engine, cluster, HDFS namespace, and YARN
// allocator (a discrete-event simulation is serial within one virtual
// clock, so sharing one across goroutines is impossible anyway). Shared
// state is confined to the mutex-guarded admission gate and a lock-striped
// run registry, which keeps status polling off the submission path. Because
// each run's substrate is seeded from its run ID, a run's outcome is a pure
// function of its submission — so a live concurrent server and the
// virtual-clock deterministic replay (ServerConfig.Deterministic plus
// RunDeterministic, which drives seeded arrivals through the same HTTP
// handlers in-process) produce byte-identical completed-task multisets.
// The replay runs on an internal/sim engine: arrivals, 429 retries and
// run completions are engine events, and each admitted run executes
// inline, completing at its admission time plus its makespan.
package service
